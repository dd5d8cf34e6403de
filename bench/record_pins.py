"""Record pins_seed0.json: the seed-0 verify verdicts and per-size counts and
a fixed sample of each build's operator.csv entries.  Run it only when the
program's outputs are meant to change:

    python3 bench/record_pins.py
"""

import json
import shutil

import run  # pins the thread counts before numpy loads

import checks
import workloads


def main() -> None:
    cli = run.load_program()
    pins = {"verify": {}, "operator": {}}
    for workload in workloads.WORKLOADS:
        base = run.WORK / f"pins-{workload}"
        shutil.rmtree(base, ignore_errors=True)
        invocations = workloads.generate(workload, checks.DEFAULT_SEED, base)
        run.run_pass(cli, invocations)
        for inv in invocations:
            name = inv.config.stem
            if inv.command == "verify":
                pins["verify"][name] = checks.verify_facts(inv.out)
            elif inv.command == "build":
                path = inv.out / "operator.csv"
                shape, _ = checks.operator_entries(path, ())
                _, entries = checks.operator_entries(path, checks.pin_indices(*shape))
                pins["operator"][name] = {"shape": shape,
                                          "entries": {str(i): v for i, v in entries.items()}}
        shutil.rmtree(base)
    checks.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

"""One cold set-up: import rfobkit, then parse and build every generated input.

Usage: python3 setup_probe.py SRC_DIR KIND:CONFIG_PATH ...
Prints the host-speed corrected and the raw elapsed seconds on its last line.
The benchmark runs it in fresh processes so that each sample pays the full
import.  The text reference and `hostspeed` load only the standard
library, so nothing the set-up needs is loaded before it is timed.
"""
import sys
import time

from hostspeed import TEXT_NOMINAL_S, SpeedSampler, text_reference

SAMPLE_PERIOD_S = 0.01


def setup(items: list[str]) -> None:
    sys.path.insert(0, sys.argv[1])
    import rfobkit.cli  # noqa: F401  (the commands import the CLI module too)
    from rfobkit import config

    for item in items:
        kind, path = item.split(":", 1)
        with open(path, encoding="utf-8") as fh:
            doc = config.parse_config(fh.read())
        if kind in ("simulate", "identify"):
            config.build_scenario(doc)
        elif kind == "design":
            config.build_env(doc)
            config.build_design_specs(doc)
        else:
            config.build_plant(doc)
            config.build_dob(doc)
            config.build_rfob(doc)
            config.build_env(doc)


def main() -> None:
    sampler = SpeedSampler(text_reference, TEXT_NOMINAL_S, SAMPLE_PERIOD_S)
    with sampler:
        time.sleep(2 * SAMPLE_PERIOD_S)
        t0 = time.perf_counter()
        setup(sys.argv[2:])
        t1 = time.perf_counter()
        time.sleep(2 * SAMPLE_PERIOD_S)
    print(repr(sampler.corrected(t0, t1)), repr(t1 - t0))


if __name__ == "__main__":
    main()

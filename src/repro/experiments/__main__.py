"""Regenerate results: ``python -m repro.experiments <run>... | all``.

Each run writes ``results/<run>.csv`` and its ``results/MANIFEST.json``
entry. The runs that take no SparkSession go first, so none of them is
timed beside a live session; the session is built when the first run that
takes one starts.
"""
import argparse

from repro.experiments.harness import RUNS, build_session, run


def main() -> None:
    p = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=__doc__.splitlines()[0],
    )
    p.add_argument("runs", nargs="+", metavar="run",
                   choices=[*RUNS, "all"],
                   help="one or more of: " + ", ".join([*RUNS, "all"]))
    names = p.parse_args().runs
    names = list(RUNS) if "all" in names else names
    spark = None
    try:
        for n in sorted(names, key=lambda n: RUNS[n].spark):
            if RUNS[n].spark and spark is None:
                spark = build_session("repro-experiments")
            run(n, spark)
    finally:
        if spark is not None:
            spark.stop()


if __name__ == "__main__":
    main()

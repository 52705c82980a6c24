"""Regenerate results: ``python -m repro.experiments <run>... | all``.

Each run writes ``results/<run>.csv`` and its ``results/MANIFEST.json``
entry; a SparkSession is built only when a selected run takes one.
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
    if any(RUNS[n].spark for n in names):
        spark = build_session("repro-experiments")
    try:
        for n in names:
            run(n, spark)
    finally:
        if spark is not None:
            spark.stop()


if __name__ == "__main__":
    main()

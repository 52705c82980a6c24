"""Reproduce paper Table 1: PPR values on the Fig. 1 example graph,
computed by the exact oracle and on Spark, where the whole PPR matrix is one
column-separable Spark job over the identity.

    spark-submit jobs/table1_ppr_example.py
"""
from _common import base_parser, build_session, finish
from repro.experiments.harness import table1_ppr


def main() -> None:
    args = base_parser(__doc__).parse_args()
    spark = build_session("table1-ppr")
    df = table1_ppr(spark)
    finish(df, args)
    spark.stop()


if __name__ == "__main__":
    main()

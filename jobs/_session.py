"""Spark session settings shared by the spark-submit entrypoints and the
test session (the root ``conftest.py``).

Only settings honoured after JVM launch live here: shuffle partitions
(64, or ``SPARK_SHUFFLE_PARTITIONS``), Arrow, and auto-broadcast joins
off, so joins exercise the shuffle path. Master and driver memory come
from the spark-submit command or ``PYSPARK_SUBMIT_ARGS``.
"""
import os

from pyspark.sql import SparkSession


def configure(builder: SparkSession.Builder) -> SparkSession.Builder:
    """``builder`` with the shared post-launch settings."""
    return (
        builder.config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
    )


def get_session(app: str) -> SparkSession:
    return (
        configure(SparkSession.builder.appName(app))
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )

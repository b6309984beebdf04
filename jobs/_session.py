"""Spark session settings shared by the spark-submit entrypoints and the
test session (the root ``conftest.py``).

Only settings honoured after JVM launch live here: 64 shuffle
partitions, Arrow, and auto-broadcast joins off, so joins exercise the
shuffle path. Master and driver memory come from the spark-submit
command or ``PYSPARK_SUBMIT_ARGS``.
"""
from pyspark.sql import SparkSession


def configure(builder: SparkSession.Builder) -> SparkSession.Builder:
    """``builder`` with the shared post-launch settings."""
    return (
        builder.config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
    )


def get_session(app: str) -> SparkSession:
    return (
        configure(SparkSession.builder.appName(app))
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )

#!/usr/bin/env python3
"""TER-iDS benchmark launcher.

    python3 terbench/run.py --workload er-heavy --seed 1 --seconds 20 --trace 0

Builds the benchmark (see build.py), runs one workload in a JVM with pinned
flags, and prints the program's report followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
The full result, with the run's configuration, is also written to
<build dir>/terbench/results/. See README.md.
"""
import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the benchmark directory free of build output
import build  # noqa: E402

JVM_TIMEOUT_S = 170

# Pinned so that every run measures the same JVM, whatever the host offers.
JVM_FLAGS = [
    "-Xms2g", "-Xmx2g", "-XX:+AlwaysPreTouch", "-XX:+UseParallelGC",
    "-XX:ActiveProcessorCount=4", "-XX:-UsePerfData", "-Xss8m",
    "-Dfile.encoding=UTF-8", "-Djdk.reflect.useDirectMethodHandle=false",
]
# Module opens Spark needs on Java 17, as in the repository's build.sbt.
OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]
# Spark reads these as system properties; logging is WARN (log4j2.properties).
SPARK_CONF = {"spark.master": "local[2]", "spark.app.name": "terbench", "spark.sql.shuffle.partitions": "2",
              "spark.ui.enabled": "false", "spark.sql.autoBroadcastJoinThreshold": "-1",
              "spark.driver.host": "127.0.0.1"}


def fail(msg: str) -> None:
    print(f"terbench: {msg}", file=sys.stderr)
    sys.exit(1)


def git_sha() -> str:
    try:
        res = subprocess.run(["git", "-C", str(build.ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return res.stdout.strip() if res.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = json.loads((build.ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        classpath = build.build()
    except build.BuildError as e:
        fail(f"build failed: {e}")

    out = build.build_dir() / "results"
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    log4j = build.BENCH_DIR / "log4j2.properties"
    spark_conf = dict(SPARK_CONF, **{"spark.local.dir": str(out / "spark-local")})
    cmd = (["java"] + JVM_FLAGS + OPENS + [f"-D{k}={v}" for k, v in spark_conf.items()] +
           [f"-Djava.io.tmpdir={out / 'tmp'}", f"-Dlog4j2.configurationFile={log4j}",
            "-cp", classpath, "repro.terbench.Main",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(out)])
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(out / f"{stem}.stderr.log", "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True, cwd=build.ROOT)
        try:
            stdout, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"run exceeded {JVM_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        tail = (out / f"{stem}.stderr.log").read_text().splitlines()[-40:]
        fail(f"benchmark JVM exited with {proc.returncode}:\n" + "\n".join(tail))
    result = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if result["correct"]:
                fail(f"metric {m['name']} was not measured")
            continue  # a failed check withholds numbers it could not vouch for
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = got

    config = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "program_sources_sha256": build.digest(build.scala_files(build.PROGRAM_SRC)),
        "nproc": len(os.sched_getaffinity(0)),
        "jvm_flags": JVM_FLAGS, "spark": SPARK_CONF, "log4j2": "WARN",
    }
    final = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    (out / f"{stem}.json").write_text(json.dumps(
        {"config": config, "result": final, "all_metrics": result["metrics"]}, indent=1))
    for line in lines[:-1]:
        print(line)
    print("config " + json.dumps(config))
    print(json.dumps(final))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build file of the TER-iDS benchmark.

Compiles the program (`src/main/scala` at the repository root) together with
the benchmark's own sources (`terbench/src/main/scala`) with the Scala
compiler that ships in the Spark distribution, into the build directory
(`$CARGO_TARGET_DIR`, default `.bench_build`, under the repository root).
A build is reused while no source file changes.

    python3 terbench/build.py          # build
    python3 terbench/build.py test     # build, then run the benchmark's tests

The tests use ScalaTest from the local coursier cache (offline).
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PROGRAM_SRC = ROOT / "src" / "main" / "scala"
BENCH_SRC = BENCH_DIR / "src" / "main" / "scala"
TEST_SRC = BENCH_DIR / "src" / "test" / "scala"
SCALATEST = "3.2.19"


class BuildError(Exception):
    pass


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (d if d.is_absolute() else ROOT / d) / "terbench"


def spark_jars() -> Path:
    """The jars of the Spark distribution: `$SPARK_HOME`, else the one whose
    `bin/spark-submit` is on the PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = Path(shutil.which("spark-submit")).resolve().parent.parent
    jars = Path(home or ".") / "jars"
    if not glob.glob(str(jars / "spark-core_*.jar")):
        raise BuildError(f"no Spark distribution at {jars} (set SPARK_HOME)")
    return jars


def compiler_classpath(jars: Path) -> str:
    parts = []
    for name in ("scala-compiler", "scala-library", "scala-reflect"):
        found = sorted(glob.glob(str(jars / f"{name}-2.13.*.jar")))
        if not found:
            raise BuildError(f"{name} 2.13 not found in {jars}")
        parts.append(found[-1])
    return os.pathsep.join(parts)


def scala_files(*dirs: Path) -> list:
    files = []
    for d in dirs:
        if not d.is_dir():
            raise BuildError(f"source directory {d} is missing")
        files += sorted(str(p) for p in d.rglob("*.scala"))
    if not files:
        raise BuildError("no Scala sources found")
    return files


def digest(files: list, extra: str = "") -> str:
    """SHA-256 of `extra` and of each file's path (relative to the
    repository root) and contents."""
    h = hashlib.sha256(extra.encode())
    for f in files:
        h.update(str(Path(f).relative_to(ROOT)).encode())
        h.update(Path(f).read_bytes())
    return h.hexdigest()


def compile_into(out: Path, files: list, classpath: str, jars: Path) -> None:
    """Compile `files` into `out` unless the stamp shows the same inputs."""
    stamp = out / ".stamp"
    key = digest(files, classpath)
    if stamp.exists() and stamp.read_text() == key:
        return
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = ["java", "-Xss8m", "-Xmx1g", "-cp", compiler_classpath(jars), "scala.tools.nsc.Main",
           "-nowarn", "-classpath", classpath, "-d", str(out)] + files
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        raise BuildError("scalac failed:\n" + res.stdout[-4000:])
    stamp.write_text(key)


def build() -> str:
    """Build the benchmark; return the runtime classpath."""
    jars = spark_jars()
    lib = str(jars / "*")
    classes = build_dir() / "classes"
    compile_into(classes, scala_files(PROGRAM_SRC, BENCH_SRC), lib, jars)
    return os.pathsep.join([str(classes), lib])


def scalatest_jars() -> list:
    cache = Path(os.environ.get("COURSIER_CACHE", Path.home() / ".cache" / "coursier"))
    found = []
    for pat in (f"scalatest*_2.13-{SCALATEST}.jar", f"scalatest-compatible-{SCALATEST}.jar",
                f"scalactic_2.13-{SCALATEST}.jar"):
        found += glob.glob(str(cache / "**" / pat), recursive=True)
    if not found:
        raise BuildError(f"ScalaTest {SCALATEST} not found under {cache}")
    return sorted(set(found))


def test() -> int:
    cp = build()
    jars = spark_jars()
    test_cp = os.pathsep.join([cp] + scalatest_jars())
    out = build_dir() / "test-classes"
    compile_into(out, scala_files(TEST_SRC), test_cp, jars)
    return subprocess.run(["java", "-Xmx1g", "-cp", os.pathsep.join([str(out), test_cp]),
                           "org.scalatest.tools.Runner", "-R", str(out), "-oW"]).returncode


if __name__ == "__main__":
    try:
        if sys.argv[1:] == ["test"]:
            sys.exit(test())
        print(build())
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(2)

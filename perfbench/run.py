#!/usr/bin/env python3
"""Run the CFPQ benchmark from the root of a checkout.

    python3 perfbench/run.py --workload q1-repeated --seed 1 --seconds 25 --trace 0

On first use in a checkout it compiles the program's sources together with
the benchmark's (the sbt build in perfbench/) and records the classpath under
.bench_build/. Every run then starts one fresh JVM directly, not under sbt,
with a fixed heap. The JVM prints progress on standard error and the JSON
result as the last line of standard output.
"""
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH = ROOT / "perfbench"
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
HEAP = "3g"
RUN_TIMEOUT_S = 170

# The JDK-internal packages Spark needs opened on Java 17, as in build.sbt.
ADD_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar")
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources_digest():
    h = hashlib.sha256()
    files = [BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for d in (ROOT / "src" / "main" / "scala", BENCH / "src" / "main" / "scala"):
        files += sorted(d.rglob("*.scala"))
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def spark_home():
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    submit = shutil.which("spark-submit")
    if submit is None:
        fail("no Spark distribution: set SPARK_HOME")
    return str(pathlib.Path(os.path.realpath(submit)).parent.parent)


def build(env):
    """Compile with sbt once per source digest; return the runtime classpath."""
    cp_file = BUILD / f"classpath-{sources_digest()}.txt"
    if cp_file.exists():
        return cp_file.read_text().strip()
    if shutil.which("sbt") is None:
        fail("sbt is needed to build the benchmark")
    out = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        cwd=BENCH, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=840)
    sys.stderr.write(out.stdout)
    lines = [l for l in out.stdout.splitlines() if l.strip() and not l.startswith("[")]
    if out.returncode != 0 or not lines:
        fail("build failed")
    BUILD.mkdir(parents=True, exist_ok=True)
    cp_file.write_text(lines[-1].strip())
    return lines[-1].strip()


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def main():
    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir() or not (BENCH / "build.sbt").is_file():
        fail("run from the root of a repository checkout (src/main/scala and perfbench/ are needed)")
    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    env.setdefault("COURSIER_MODE", "offline")
    repos = pathlib.Path.home() / ".sbt" / "repositories"
    if "SBT_OPTS" not in env and repos.exists():
        env["SBT_OPTS"] = (f"-Dsbt.override.build.repos=true -Dsbt.repository.config={repos} "
                           "-Dsbt.offline=true")
    cp = build(env)
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}",
            f"-Dperfbench.dir={BUILD}", f"-Dperfbench.git={git_sha()}"]
           + ADD_OPENS + ["-cp", cp, "repro.perfbench.Main"] + sys.argv[1:])
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark JVM ran longer than {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""python benchmarks/measure/reachability.py [PATTERN...] — which ``def``s of src/repro does no shipped program reach?

A ``sys.setprofile`` hook (no source change) records every call into ``src/repro`` while each program runs in this
process: the four BENCHMARK.json workloads (``--smoke``, untraced and traced), the examples, the figure and ablation
benches, a piped shell session, the SQL corpus and every sql / python block of README.md and docs/ (a block that raises
counts up to there).  Lists the ``def``s (an ``ast`` inventory) that none reached or, given PATTERNs, every def whose
"file.py:qualname" contains one, with its callers.  Last line: ``unreached: N defs, M lines of D`` (D: src/repro).
"""
import ast
import contextlib
import glob
import io
import os
import re
import runpy
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src", "repro") + os.sep
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks", "e2e")]
patterns, called = sys.argv[1:], {}  # called: "pdf/kernels.py:interval_probs_params" -> {program, ...}
corpus = "".join(open(path).read() for path in sorted(glob.glob(f"{ROOT}/tests/engine/sql_corpus/*.sql")))


def replay(blocks):  # [(lang, body), ...] in order against one database and one python namespace
    from repro.engine.database import Database
    db, scope = Database(), {"__name__": "block"}
    for lang, body in blocks:
        for piece in [body] if lang == "python" else re.sub(r"--[^\n]*", "", body).split(";"):
            with contextlib.suppress(Exception):  # docs show templates ("SELECT ... ;") beside statements
                exec(piece, scope) if lang == "python" else piece.strip() and db.execute(piece)


def main(path, *argv):  # a script or module as ``python path argv...`` runs it
    run = runpy.run_path if path.endswith(".py") else runpy.run_module
    return lambda: run(path, run_name="__main__"), [path, *argv]


def inventory(node, prefix, out):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[prefix + child.name] = child.end_lineno - child.lineno + 1  # lines of the def
            inventory(child, f"{prefix}{child.name}.<locals>.", out)
        else:
            inventory(child, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix, out)


programs = [(f"run.py:{w}:trace{t}", *main(f"{ROOT}/benchmarks/e2e/run.py", "--workload", w, "--smoke", "--trace", t))
            for w in ("tpch_load", "tpch_scan", "tpch_join", "sensor_durable") for t in "01"]
programs += [(os.path.relpath(p, ROOT), *main(p)) for p in sorted(glob.glob(f"{ROOT}/examples/*.py"))]
programs += [(f"bench:{f}", *main("repro.bench", f, "--quick")) for f in ("fig4", "fig5", "fig6")]
programs += [("pytest", *main("pytest", "--benchmark-disable", "-q", "-p", "no:cacheprovider", f"--rootdir={ROOT}",
                              *sorted(glob.glob(f"{ROOT}/benchmarks/bench_[af]*.py")))),  # bench_ablation_*, bench_fig*
             ("shell", *main("repro.engine.shell")), ("sql_corpus", lambda: replay([("sql", corpus)]), [""])]
programs += [(os.path.relpath(p, ROOT), lambda p=p: replay(re.findall(r"```(sql|python)\n(.*?)```", open(p).read(), re.S)), [""])
             for p in [f"{ROOT}/README.md", *sorted(glob.glob(f"{ROOT}/docs/*.md"))]]
scratch = tempfile.TemporaryDirectory()  # examples and doc blocks write sensors.rpdb, mydb/, ...
os.chdir(scratch.name)
sys.stdin = io.StringIO(f"{corpus}.tables\n.schema readings\n.stats\n.save s\n.open s\n.open d\n.checkpoint\n.quit\n")  # the shell's input
for program, run, sys.argv in programs:
    def hook(frame, event, arg, program=program):
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            called.setdefault(frame.f_code.co_filename[len(SRC):] + ":" + frame.f_code.co_qualname, set()).add(program)
    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as output:
            run()
    except SystemExit as done:  # run.py and pytest end in sys.exit(status)
        if done.code:  # say which program failed, and how, before failing
            sys.stderr.write(output.getvalue())
        assert not done.code, (program, done.code)
    sys.setprofile(None)

sources, defs = {path[len(SRC):]: open(path).read() for path in glob.glob(SRC + "**/*.py", recursive=True)}, {}
for name, source in sources.items():
    inventory(ast.parse(source), name + ":", defs)
unreached = sorted(set(defs) - set(called))
for name in sorted(n for n in defs if any(p in n for p in patterns)) if patterns else unreached:
    print(f"{name:58s} {', '.join(sorted(called.get(name, ()))) or 'never called'}")
print(f"unreached: {len(unreached)} defs, {sum(defs[n] for n in unreached)} lines of {sum(len(s.splitlines()) for s in sources.values())}")

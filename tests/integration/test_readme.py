"""The README quick-start is a program: it must run top to bottom."""

import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "..", "README.md")


def test_quickstart_block_runs(tmp_path, monkeypatch, capsys):
    with open(README, encoding="utf-8") as f:
        block = re.search(r"```python\n(.*?)```", f.read(), re.S).group(1)
    monkeypatch.chdir(tmp_path)  # the block saves sensors.rpdb
    scope = {}
    exec(block, scope)
    printed = capsys.readouterr().out.splitlines()
    documented = [line[3:] for line in block.splitlines() if line.startswith("#  ")]
    assert [line.rstrip() for line in printed] == [line.rstrip() for line in documented]
    assert len(scope["db"].table("sensors")) == 3  # reopened from the snapshot

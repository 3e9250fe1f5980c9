"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    # its one print is the sparse beamformer's output SINR in dB
    assert float(capsys.readouterr().out) > 0.0

"""The README's pipeline config example runs and writes what it lists."""

import json
import re
from pathlib import Path

from cellcast.cli import main, parse_pipeline_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _json_blocks() -> list[str]:
    return re.findall(r"```json\n(.*?)```", README, re.S)


def _listed_outputs() -> list[str]:
    """Names in the bullets under "This writes, under `out_dir`:"."""
    section = README.split("This writes, under `out_dir`:", 1)[1].split("\n\n", 2)[1]
    names = []
    for line in section.splitlines():
        if line.startswith("- "):
            names += re.findall(r"`([^`]+)`", line.split(" - ", 1)[0])
    return names


def test_readme_config_runs(tmp_path):
    config = json.loads(_json_blocks()[0])
    out = tmp_path / "run"
    config["out_dir"] = str(out)
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(config))
    assert main(["pipeline", "--config", str(path)]) == 0

    names = _listed_outputs()
    assert "bins.json" in names and "predictions_cN.csv" in names
    k = json.loads((out / "clusters.json").read_text())["k"]
    for name in names:
        for cluster in range(k) if "cN" in name else [None]:
            listed = name if cluster is None else name.replace("cN", f"c{cluster}")
            assert (out / listed).exists(), listed
    assert (out / "data" / "truth.csv").exists()


def test_readme_input_snippet_parses():
    config = json.loads(_json_blocks()[0])
    del config["synth"]
    config.update(json.loads("{" + _json_blocks()[1] + "}"))
    cfg = parse_pipeline_config(config)
    assert cfg.synth_spec is None and cfg.input_paths == ["path/to/cdr-files-or-dirs"]

"""Golden report digests: one small command per experiment kind, run in
process, must write exactly the recorded bytes, so report bytes stay the
same from version to version. A change that alters report bytes on purpose
bumps SCHEMA_VERSION and records new digests here.
"""

import hashlib

import pytest

from smoothlab.cli import cli_main

GOLDEN = {   # label -> (argv without --seed/--out, SHA-256 of the report at seed 1)
    "tail-matrix": (
        ["tail-matrix", "--d", "3", "--sigma", "0.5", "1.0", "--threshold", "5", "20",
         "--trials", "1500", "--center", "ones", "--format", "json", "--per-trial"],
        "ec507c2a014af798018ad25a07481f806ed0901b86cd7388b9bd3972c041b752"),
    "tail-rademacher": (
        ["tail-rademacher", "--d", "3", "--threshold", "2", "10", "--trials", "1100",
         "--format", "json", "--per-trial"],
        "5338c849437f1862d1483d6800e1e995b8312fc647b7d3e9ae31eaa58600318e"),
    "tail-rademacher-exhaustive": (
        ["tail-rademacher", "--d", "3", "--exhaustive", "--threshold", "2", "10",
         "--format", "json", "--per-trial"],
        "5c090bd932d56011b75d9c6f329eef150d16c6a9f97f4980bb04ba668e612398"),
    "shadow-size": (
        ["shadow-size", "--n", "7", "--d", "3", "--sigma", "0.05", "0.1", "--trials", "6",
         "--format", "json", "--per-trial"],
        "8908ed7c47357cfcdceb86c3769dbfdd16f038e981aea99167827c0e279536a8"),
    "simplex-pivots": (
        ["simplex-pivots", "--n", "6", "--d", "2", "--sigma", "0.1", "--trials", "6",
         "--center", "box", "--format", "json", "--per-trial"],
        "4a04ac83ceee5e62108d5654137f123b068e671c927ff061ad674fe300d9a033"),
    "tail-perceptron": (
        ["tail-perceptron", "--n", "10", "--d", "3", "--sigma", "0.2", "--threshold", "2", "10",
         "--trials", "20", "--center", "ones", "--format", "json", "--per-trial"],
        "9b835229563bc0ee2da65709388ccbb8008964bcb753785559b725dc978eabcf"),
    "submatrix-lemma": (
        ["submatrix-lemma", "--n", "6", "--d", "2", "--sigma", "0.1", "--trials", "40",
         "--center", "box", "--format", "json", "--per-trial"],
        "2d8029c963cbdb18909de1c8de9fe8d4d9df63a129c86e984b51105bcd7cf999"),
    "smoothed-profile": (
        ["smoothed-profile", "--n", "6", "--d", "2", "--sigma", "0.0", "0.1", "--trials", "3",
         "--format", "json", "--per-trial"],
        "ab622391593411e0333805d73aa3e9bc901818ab60e807724ea2b1f00c155e75"),
    "smoothed-profile-perceptron": (
        ["smoothed-profile", "--measure", "perceptron_iterations", "--n", "4", "--d", "2",
         "--sigma", "0.0", "0.1", "--trials", "2"],
        "808dd3dc263a0014689ff6247b8e229a00026d3fe0c1cfe5006991cd078ef079"),
}


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_report_digest(tmp_path, label):
    argv, digest = GOLDEN[label]
    out = tmp_path / "report"
    assert cli_main(argv + ["--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def as_config(flags: list) -> str:
    """The key = value config file standing for a list of long flags."""
    lines = []
    for token in flags:
        if token.startswith("--"):
            lines.append([token[2:].replace("-", "_")])
        else:
            lines[-1].append(token)
    return "".join(f"{key} = {' '.join(values) or 'true'}\n" for key, *values in lines)


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_config_file_digest(tmp_path, label):
    """The same command, every flag but the command written in a config file."""
    (command, *flags), digest = GOLDEN[label]
    out = tmp_path / "report"
    config = tmp_path / "run.cfg"
    config.write_text(as_config(flags + ["--seed", "1", "--out", str(out)]))
    assert cli_main([command, "--config", str(config)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

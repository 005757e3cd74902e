"""Public surface: every exported name resolves and the CLI parser builds."""

import switchgp
from switchgp import cli


def test_every_exported_name_resolves():
    missing = [name for name in switchgp.__all__ if not hasattr(switchgp, name)]
    assert missing == []
    assert len(set(switchgp.__all__)) == len(switchgp.__all__)


def test_cli_parser_builds():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    assert set(sub.choices) == {
        "train", "predict", "filter", "monitor", "sweep", "simulate", "pca", "bench-fft",
    }

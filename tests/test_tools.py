"""Guards for the developer tools next to the package."""

import importlib.util
from pathlib import Path

from geosaddle import cli

_HASHES = Path(__file__).resolve().parent.parent / "tools" / "output_hashes.py"


def _load_output_hashes():
    spec = importlib.util.spec_from_file_location("output_hashes", _HASHES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_hashes_commands_pass_validation():
    # A tightened validation would otherwise turn a hash line into an exit-2 line unnoticed.
    parser = cli.build_parser()
    checked = set()
    for _name, argv, _outputs, _stdout in _load_output_hashes().COMMANDS:
        if argv[0] in ("run", "grid-search", "reference"):
            cli._config_from_args(parser.parse_args(argv)).validate()
            checked.add(argv[0])
    assert checked == {"run", "grid-search", "reference"}

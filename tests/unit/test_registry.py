"""Component names: the per-kind tables and the read-only index over them."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.attacks import ATTACKS
from repro.cli import main
from repro.core.encoding_factory import ENCODING_NAMES, ENCODINGS
from repro.errors import ParameterError, ReproError
from repro.registry import REGISTRY
from repro.server.transports import build_transport
from repro.transforms import TRANSFORMS

FIXTURES = Path(__file__).parent.parent / "fixtures"


class TestLookupErrors:
    def test_unknown_name_lists_valid_names(self):
        with pytest.raises(ParameterError) as excinfo:
            REGISTRY.get("encoding", "gamma")
        message = str(excinfo.value)
        assert all(name in message for name in ENCODING_NAMES)

    def test_typo_gets_a_suggestion(self):
        with pytest.raises(ParameterError, match="Did you mean 'epsilon'"):
            REGISTRY.get("attack", "epsilom")

    def test_find_searches_kinds_in_order(self):
        kinds = ("transform", "attack")
        assert REGISTRY.find("sample", kinds) \
            == ("transform", TRANSFORMS["sample"][0])
        assert REGISTRY.find("epsilon", kinds) \
            == ("attack", ATTACKS["epsilon"][0])

    def test_find_error_lists_all_searched_kinds(self):
        with pytest.raises(ParameterError) as excinfo:
            REGISTRY.find("zap", kinds=("attack", "transform"))
        message = str(excinfo.value)
        assert "epsilon" in message and "sample" in message

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError, match="unknown component kind"):
            REGISTRY.names("codec")

    def test_unknown_transport_lists_both(self):
        with pytest.raises(ReproError) as excinfo:
            build_transport("tcpx")
        message = str(excinfo.value)
        assert "tcp" in message and "websocket" in message
        assert "Did you mean 'tcp'" in message


class TestBuiltinPopulation:
    def test_builtins_meet_the_floor(self):
        """The acceptance floor: >=3 encodings, >=4 transforms, >=3 attacks."""
        assert len(REGISTRY.names("encoding")) >= 3
        assert len(REGISTRY.names("transform")) >= 4
        assert len(REGISTRY.names("attack")) >= 3
        assert len(REGISTRY.names("generator")) >= 3

    def test_encoding_names_derive_from_registry(self):
        assert ENCODING_NAMES == REGISTRY.names("encoding") \
            == tuple(ENCODINGS)

    def test_factory_unknown_name_error_lists_names(self):
        from repro.core.encoding_factory import build_encoding
        from repro.core.params import WatermarkParams
        from repro.core.quantize import Quantizer
        from repro.util.hashing import KeyedHasher

        params = WatermarkParams()
        with pytest.raises(ParameterError) as excinfo:
            build_encoding("rot13", params,
                           Quantizer(params.value_bits,
                                     params.avg_extra_bits),
                           KeyedHasher(b"k"))
        for name in REGISTRY.names("encoding"):
            assert name in str(excinfo.value)


class TestLazyPopulation:
    def test_core_import_does_not_populate_providers(self):
        """Importing the core (or looking up an encoding) must not drag
        in the attack/transform provider modules."""
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from repro.core.embedder import StreamWatermarker\n"
            "w = StreamWatermarker('1', b'k')\n"  # encoding lookup hits
            "assert 'repro.attacks' not in sys.modules, 'attacks imported'\n"
            "assert 'repro.transforms' not in sys.modules, "
            "'transforms imported'\n"
        )
        completed = subprocess.run([sys.executable, "-c", code],
                                   capture_output=True, text=True)
        assert completed.returncode == 0, completed.stderr


class TestCliIntegration:
    def test_list_covers_every_kind(self, capsys):
        assert main(["list", "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert set(listed) == set(REGISTRY.KINDS)

    def test_list_output_is_pinned(self, capsys):
        """5 kinds, 16 components: names, order and descriptions."""
        assert main(["list"]) == 0
        assert capsys.readouterr().out \
            == (FIXTURES / "repro_list.txt").read_text(encoding="utf-8")

    def test_list_json_output_is_pinned(self, capsys):
        assert main(["list", "--json"]) == 0
        assert capsys.readouterr().out \
            == (FIXTURES / "repro_list.json").read_text(encoding="utf-8")

    def test_serve_unknown_transport_exits_2(self, capsys):
        assert main(["serve", "--transport", "tcpx", "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert "tcp" in err and "websocket" in err

    def test_attack_kind_typo_is_helpful(self, tmp_path, capsys):
        stream = tmp_path / "s.csv"
        stream.write_text("0.1\n0.2\n0.1\n")
        code = main(["attack", str(stream), str(tmp_path / "o.csv"),
                     "--kind", "epsilom"])
        assert code == 2
        err = capsys.readouterr().err
        assert "epsilon" in err and "Did you mean" in err

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

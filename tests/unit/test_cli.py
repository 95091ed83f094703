"""Tests for the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.streams.generators import TemperatureSensorGenerator
from repro.streams.io import load_stream_csv, save_stream_csv


@pytest.fixture()
def stream_file(tmp_path):
    values = TemperatureSensorGenerator(eta=80, seed=13).generate(5000)
    path = tmp_path / "stream.csv"
    save_stream_csv(path, values)
    return path


class TestEmbedDetect:
    def test_embed_then_detect(self, stream_file, tmp_path, capsys):
        marked_path = tmp_path / "marked.csv"
        code = main(["embed", str(stream_file), str(marked_path),
                     "--key", "cli-key", "--watermark", "1"])
        assert code == 0
        embed_info = json.loads(capsys.readouterr().out)
        assert embed_info["embedded"] > 0

        code = main(["detect", str(marked_path), "--key", "cli-key",
                     "--expect", "1"])
        assert code == 0
        detect_info = json.loads(capsys.readouterr().out)
        assert detect_info["bias"][0] > 10
        assert detect_info["match_fraction"] == 1.0
        assert detect_info["estimate"] == ["1"]

    def test_detect_reports_exact_fp_past_1023_votes(self, tmp_path,
                                                     capsys):
        """A long marked stream puts more than 1023 votes on bit 0.

        The exact false-positive probability must print (it underflows
        to 0.0) instead of the detect command dying on a float overflow.
        """
        from repro import watermark_stream

        values = TemperatureSensorGenerator(eta=60, seed=7).generate(80_000)
        marked, _ = watermark_stream(values, "1", "k-long",
                                     encoding="initial")
        path = tmp_path / "long.csv"
        save_stream_csv(path, marked)
        code = main(["detect", str(path), "--key", "k-long",
                     "--encoding", "initial"])
        assert code == 0
        info = json.loads(capsys.readouterr().out)
        assert info["votes"][0] > 1023
        assert info["exact_fp_bit0"] == 0.0

    def test_detect_spans_flag(self, stream_file, tmp_path, capsys):
        """--spans routes through the span-merge path.

        With the default 2048-item window the 5000-item stream is below
        the 8-window span floor, so the split degrades to one span and
        the output must be *identical* to the plain serial detect.
        """
        marked_path = tmp_path / "marked.csv"
        main(["embed", str(stream_file), str(marked_path),
              "--key", "cli-key", "--watermark", "1"])
        capsys.readouterr()

        code = main(["detect", str(marked_path), "--key", "cli-key"])
        assert code == 0
        serial = json.loads(capsys.readouterr().out)
        code = main(["detect", str(marked_path), "--key", "cli-key",
                     "--spans", "2"])
        assert code == 0
        spanned = json.loads(capsys.readouterr().out)
        assert spanned == serial

    @pytest.mark.parametrize("flag, value", [("--workers", "-2"),
                                             ("--spans", "0")])
    def test_detect_rejects_bad_counts(self, stream_file, capsys, flag,
                                       value):
        """A negative worker count or a non-positive span count is an
        error (exit 2), not a silent serial run."""
        code = main(["detect", str(stream_file), "--key", "cli-key",
                     flag, value])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag[2:]} must be >= " in captured.err

    def test_detect_wrong_key_low_bias(self, stream_file, tmp_path, capsys):
        marked_path = tmp_path / "marked.csv"
        main(["embed", str(stream_file), str(marked_path),
              "--key", "cli-key"])
        capsys.readouterr()
        main(["detect", str(marked_path), "--key", "other-key"])
        info = json.loads(capsys.readouterr().out)
        assert abs(info["bias"][0]) <= 12

    def test_missing_key_is_an_error(self, stream_file, tmp_path, capsys,
                                     monkeypatch):
        monkeypatch.delenv("REPRO_KEY", raising=False)
        code = main(["embed", str(stream_file), str(tmp_path / "o.csv")])
        assert code == 2
        assert "key" in capsys.readouterr().err

    def test_params_override(self, stream_file, tmp_path, capsys):
        code = main(["embed", str(stream_file), str(tmp_path / "o.csv"),
                     "--key", "k", "--params", '{"phi": 5}'])
        assert code == 0

    def test_normalization_roundtrip(self, tmp_path, capsys):
        """Physical-unit streams embed and detect via --normalize."""
        celsius = 15 + 8 * TemperatureSensorGenerator(
            eta=80, seed=14).generate(5000)
        raw = tmp_path / "celsius.csv"
        save_stream_csv(raw, celsius)
        marked = tmp_path / "marked.csv"
        main(["embed", str(raw), str(marked), "--key", "k",
              "--normalize", "7:23"])
        capsys.readouterr()
        published = load_stream_csv(marked)
        assert np.max(np.abs(published - celsius)) < 0.01
        code = main(["detect", str(marked), "--key", "k",
                     "--normalize", "7:23"])
        assert code == 0
        info = json.loads(capsys.readouterr().out)
        assert info["bias"][0] > 10


class TestAttackAndInfo:
    def test_attack_sample(self, stream_file, tmp_path, capsys):
        out = tmp_path / "sampled.csv"
        code = main(["attack", str(stream_file), str(out),
                     "--kind", "sample", "--degree", "4", "--seed", "3"])
        assert code == 0
        info = json.loads(capsys.readouterr().out)
        assert info["output_items"] == pytest.approx(
            info["input_items"] / 4, abs=1)

    def test_attack_epsilon(self, stream_file, tmp_path, capsys):
        out = tmp_path / "attacked.csv"
        code = main(["attack", str(stream_file), str(out),
                     "--kind", "epsilon", "--tau", "0.2",
                     "--epsilon", "0.1", "--seed", "3"])
        assert code == 0
        attacked = load_stream_csv(out)
        original = load_stream_csv(stream_file)
        changed = np.sum(attacked != original)
        assert 0 < changed <= 0.2 * len(original)

    def test_info(self, stream_file, capsys):
        code = main(["info", str(stream_file)])
        assert code == 0
        info = json.loads(capsys.readouterr().out)
        assert info["items"] == 5000
        assert info["major_extremes"] > 10
        assert info["eta_estimate"] > 0


class TestErrorPaths:
    def test_unknown_attack_kind_suggests_spelling(self, stream_file,
                                                   tmp_path, capsys):
        """A typoed --kind fails cleanly with a did-you-mean hint."""
        code = main(["attack", str(stream_file), str(tmp_path / "o.csv"),
                     "--kind", "sampel"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown" in err
        assert "Did you mean 'sample'?" in err

    def test_unknown_attack_kind_lists_valid_names(self, stream_file,
                                                   tmp_path, capsys):
        code = main(["attack", str(stream_file), str(tmp_path / "o.csv"),
                     "--kind", "zzz-no-such-attack"])
        assert code == 2
        err = capsys.readouterr().err
        assert "epsilon" in err and "summarize" in err

    def test_unknown_encoding_rejected_by_parser(self, stream_file,
                                                 tmp_path, capsys):
        """Encoding choices come from the registry; bogus names die in
        argparse with exit code 2."""
        with pytest.raises(SystemExit) as excinfo:
            main(["embed", str(stream_file), str(tmp_path / "o.csv"),
                  "--key", "k", "--encoding", "no-such-encoding"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "multihash" in err

    def test_detect_unknown_encoding_rejected(self, stream_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["detect", str(stream_file), "--key", "k",
                  "--encoding", "bogus"])
        assert excinfo.value.code == 2


class TestHubCommands:
    @pytest.fixture()
    def fleet(self, tmp_path):
        """Two small CSV streams plus derived paths for hub runs."""
        specs = {}
        for i, seed in enumerate((21, 22)):
            values = TemperatureSensorGenerator(
                eta=80, seed=seed).generate(2500)
            path = tmp_path / f"s{i}.csv"
            save_stream_csv(path, values)
            specs[f"stream-{i}"] = (values, path)
        return tmp_path, specs

    def _stream_args(self, specs, tmp_path, suffix):
        return [arg for sid, (_, path) in specs.items()
                for arg in ("--stream",
                            f"{sid}={path}={tmp_path / (sid + suffix)}")]

    def test_embed_crash_resume_matches_offline(self, fleet, capsys):
        """hub embed --stop-after + hub resume == offline watermarking."""
        from repro import watermark_stream

        tmp_path, specs = fleet
        store = tmp_path / "store"
        code = main(["hub", "embed", str(store), "--key", "hub-key",
                     "--watermark", "1", "--chunk", "400",
                     "--stop-after", "7"]
                    + self._stream_args(specs, tmp_path, ".out.csv"))
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["stopped_early"] is True

        code = main(["hub", "status", str(store)])
        assert code == 0
        status = json.loads(capsys.readouterr().out)
        assert {row["stream_id"] for row in status["streams"]} \
            == set(specs)
        assert all(row["kind"] == "protection-session"
                   and row["sequence"] > 0 and not row["finished"]
                   for row in status["streams"])

        code = main(["hub", "resume", str(store), "--key", "hub-key",
                     "--chunk", "400"]
                    + self._stream_args(specs, tmp_path, ".tail.csv"))
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert all(row["finished"] for row in summary["streams"].values())

        for sid, (values, _) in specs.items():
            offline, _ = watermark_stream(values, "1", b"hub-key")
            recovered = np.concatenate([
                load_stream_csv(tmp_path / f"{sid}.out.csv"),
                load_stream_csv(tmp_path / f"{sid}.tail.csv")])
            assert np.array_equal(recovered, offline)

    def test_stop_after_with_sparse_cadence_never_duplicates(self, fleet,
                                                             capsys):
        """--checkpoint-every > 1 + --stop-after must still hand resume
        a store consistent with the written outputs (a controlled stop
        checkpoints everything), so concat(out, tail) stays exact."""
        from repro import watermark_stream

        tmp_path, specs = fleet
        store = tmp_path / "store"
        code = main(["hub", "embed", str(store), "--key", "hub-key",
                     "--chunk", "400", "--checkpoint-every", "3",
                     "--stop-after", "4"]
                    + self._stream_args(specs, tmp_path, ".out.csv"))
        assert code == 0
        capsys.readouterr()
        code = main(["hub", "resume", str(store), "--key", "hub-key",
                     "--chunk", "400"]
                    + self._stream_args(specs, tmp_path, ".tail.csv"))
        assert code == 0
        capsys.readouterr()
        for sid, (values, _) in specs.items():
            offline, _ = watermark_stream(values, "1", b"hub-key")
            recovered = np.concatenate([
                load_stream_csv(tmp_path / f"{sid}.out.csv"),
                load_stream_csv(tmp_path / f"{sid}.tail.csv")])
            assert len(recovered) == len(offline)
            assert np.array_equal(recovered, offline)

    def test_streams_without_output_yet_are_reported_not_crashed(
            self, fleet, capsys):
        """Stopping before a stream released anything must not die on
        an empty CSV; the summary reports written_items 0."""
        tmp_path, specs = fleet
        store = tmp_path / "store"
        code = main(["hub", "embed", str(store), "--key", "k",
                     "--chunk", "400", "--stop-after", "1"]
                    + self._stream_args(specs, tmp_path, ".out.csv"))
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        rows = summary["streams"]
        untouched = [sid for sid, row in rows.items()
                     if row["written_items"] == 0]
        assert untouched  # with one push only, some stream has nothing
        for sid in untouched:
            assert rows[sid]["output"] is None
            assert not (tmp_path / f"{sid}.out.csv").exists()

    def test_resume_of_completed_run_is_graceful(self, fleet, capsys):
        """Resuming a store whose run already finished writes nothing
        and reports finished streams instead of crashing."""
        tmp_path, specs = fleet
        store = tmp_path / "store"
        main(["hub", "embed", str(store), "--key", "k"]
             + self._stream_args(specs, tmp_path, ".out.csv"))
        capsys.readouterr()
        code = main(["hub", "resume", str(store), "--key", "k"]
                    + self._stream_args(specs, tmp_path, ".tail.csv"))
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        for row in summary["streams"].values():
            assert row["finished"] is True
            assert row["written_items"] == 0

    def test_status_missing_store_is_clean_error(self, tmp_path, capsys):
        code = main(["hub", "status", str(tmp_path / "no-such-store")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_resume_missing_store_is_clean_error(self, fleet, capsys):
        tmp_path, specs = fleet
        code = main(["hub", "resume", str(tmp_path / "nowhere"),
                     "--key", "k"]
                    + self._stream_args(specs, tmp_path, ".t.csv"))
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_resume_unknown_stream_is_clean_error(self, fleet, capsys):
        tmp_path, specs = fleet
        store = tmp_path / "store"
        main(["hub", "embed", str(store), "--key", "k", "--stop-after",
              "2"] + self._stream_args(specs, tmp_path, ".o.csv"))
        capsys.readouterr()
        code = main(["hub", "resume", str(store), "--key", "k",
                     "--stream",
                     f"ghost={tmp_path / 's0.csv'}={tmp_path / 'g.csv'}"])
        assert code == 2
        assert "ghost" in capsys.readouterr().err

    def test_bad_stream_spec_is_clean_error(self, tmp_path, capsys):
        code = main(["hub", "embed", str(tmp_path / "store"),
                     "--key", "k", "--stream", "only-an-id"])
        assert code == 2
        assert "ID=IN.csv=OUT.csv" in capsys.readouterr().err

    def test_missing_key_is_clean_error(self, fleet, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_KEY", raising=False)
        tmp_path, specs = fleet
        code = main(["hub", "embed", str(tmp_path / "store")]
                    + self._stream_args(specs, tmp_path, ".o.csv"))
        assert code == 2
        assert "key" in capsys.readouterr().err


class TestHubStatusEmptyStore:
    def test_empty_store_is_a_clear_message_not_a_bare_table(self, tmp_path,
                                                             capsys):
        """An existing-but-empty store exits 0 with an 'empty' message."""
        store = tmp_path / "empty-store"
        store.mkdir()
        code = main(["hub", "status", str(store)])
        assert code == 0
        out = capsys.readouterr().out
        assert "empty" in out
        assert "no stream checkpoints" in out

    def test_store_drained_by_drops_reports_empty(self, tmp_path, capsys):
        """A store whose every stream was dropped reads as empty too."""
        from repro import StreamHub
        from repro.stores import DirectoryCheckpointStore

        store_dir = tmp_path / "store"
        hub = StreamHub(store=DirectoryCheckpointStore(store_dir),
                        checkpoint_every=1)
        hub.protect("s", "1", b"k")
        hub.finish("s")
        hub.drop("s")
        code = main(["hub", "status", str(store_dir)])
        assert code == 0
        assert "empty" in capsys.readouterr().out


class TestRemoteCommands:
    @pytest.fixture()
    def server(self, tmp_path):
        """An in-process StreamService on a background loop."""
        import asyncio
        import threading

        from repro.server.service import StreamService

        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        service = StreamService(store_path=tmp_path / "srv-store",
                                checkpoint_every=1)
        host, port = asyncio.run_coroutine_threadsafe(
            service.start(), loop).result(15)
        yield host, port
        asyncio.run_coroutine_threadsafe(service.drain(), loop).result(15)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        loop.close()

    def test_remote_embed_then_detect_round_trip(self, server, stream_file,
                                                 tmp_path, capsys):
        """CLI remote embed/detect against a live server, bit-identical
        to offline embedding."""
        from repro import watermark_stream

        host, port = server
        marked_path = tmp_path / "remote-marked.csv"
        code = main(["remote", "embed", str(stream_file), str(marked_path),
                     "--host", host, "--port", str(port),
                     "--stream-id", "cli-s1", "--key", "cli-key",
                     "--watermark", "1"])
        assert code == 0
        info = json.loads(capsys.readouterr().out)
        assert info["items_in"] == 5000
        assert info["items_out"] == 5000

        offline, _ = watermark_stream(load_stream_csv(stream_file), "1",
                                      b"cli-key")
        assert np.array_equal(load_stream_csv(marked_path), offline)

        code = main(["remote", "detect", str(marked_path),
                     "--host", host, "--port", str(port),
                     "--stream-id", "cli-d1", "--key", "cli-key",
                     "--expect", "1"])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["bias"][0] > 10
        assert verdict["match_fraction"] == 1.0
        assert verdict["estimate"] == ["1"]
        assert verdict["reconnects"] == 0

    def test_remote_detect_prints_the_offline_verdict(self, server,
                                                      stream_file,
                                                      tmp_path, capsys):
        """On the same marked file and key, `remote detect` prints the
        evidence `detect` prints, exact_fp_bit0 included."""
        host, port = server
        marked_path = tmp_path / "marked.csv"
        assert main(["embed", str(stream_file), str(marked_path),
                     "--key", "cli-key", "--watermark", "1"]) == 0
        capsys.readouterr()
        assert main(["detect", str(marked_path), "--key", "cli-key"]) == 0
        offline = json.loads(capsys.readouterr().out)
        assert main(["remote", "detect", str(marked_path),
                     "--host", host, "--port", str(port),
                     "--stream-id", "cli-v1", "--key", "cli-key"]) == 0
        remote = json.loads(capsys.readouterr().out)
        fields = ("votes", "bias", "confidence_bit0", "exact_fp_bit0")
        assert {name: remote[name] for name in fields} \
            == {name: offline[name] for name in fields}

    def test_remote_unreachable_server_is_clean_error(self, stream_file,
                                                      tmp_path, capsys):
        code = main(["remote", "embed", str(stream_file),
                     str(tmp_path / "o.csv"), "--port", "1",
                     "--stream-id", "s", "--key", "k"])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err


class TestObservabilityCommands:
    """`repro status`, `repro loadgen` and the --json surfaces."""

    @pytest.fixture()
    def server(self, tmp_path):
        import asyncio
        import threading

        from repro.server.service import StreamService

        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        service = StreamService(store_path=tmp_path / "obs-store",
                                checkpoint_every=1)
        host, port = asyncio.run_coroutine_threadsafe(
            service.start(), loop).result(15)
        yield host, port
        asyncio.run_coroutine_threadsafe(service.drain(), loop).result(15)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        loop.close()

    def test_status_pretty_and_compact(self, server, capsys):
        host, port = server
        code = main(["status", f"{host}:{port}"])
        assert code == 0
        pretty = capsys.readouterr().out
        snapshot = json.loads(pretty)
        assert snapshot["server"]["draining"] is False
        assert snapshot["metrics"]["enabled"] is True
        assert "\n" in pretty.strip()  # indent=2

        code = main(["status", f"{host}:{port}", "--json"])
        assert code == 0
        compact = capsys.readouterr().out
        assert len(compact.strip().splitlines()) == 1
        assert json.loads(compact)["server"]["connections"] >= 0

    @pytest.mark.parametrize("address", ["nonsense", ":7000", "host:",
                                         "host:port"])
    def test_status_bad_address_is_clean_error(self, address, capsys):
        code = main(["status", address])
        assert code == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_loadgen_host_without_port_is_clean_error(self, capsys):
        code = main(["loadgen", "--host", "10.0.0.1"])
        assert code == 2
        assert "go together" in capsys.readouterr().err

    def test_loadgen_smoke_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "loadgen.json"
        code = main(["loadgen", "--workers", "2", "--pushes", "4",
                     "--chunk", "64", "--crash-every", "2",
                     "--out", str(out)])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads(out.read_text())
        assert printed == saved
        assert saved["verify_failures"] == 0
        assert saved["worker_errors"] == []
        assert saved["items"] == 2 * 4 * 64
        assert saved["push_ms"]["p50"] is not None

    def test_hub_status_json_is_one_object_per_line(self, tmp_path,
                                                    capsys):
        from repro import StreamHub
        from repro.stores import DirectoryCheckpointStore

        store_path = tmp_path / "store"
        store = DirectoryCheckpointStore(store_path)
        hub = StreamHub(store=store, checkpoint_every=1)
        for sid in ("a", "b"):
            hub.protect(sid, "1", b"k")
            hub.push(sid, np.linspace(0.0, 5.0, 300))

        code = main(["hub", "status", str(store_path), "--json"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [json.loads(line) for line in lines]
        assert [row["stream_id"] for row in rows] == ["a", "b"]
        assert all(row["items"] == 300 for row in rows)

    def test_hub_status_json_empty_store_emits_no_lines(self, tmp_path,
                                                        capsys):
        from repro.stores import DirectoryCheckpointStore

        store_path = tmp_path / "store"
        DirectoryCheckpointStore(store_path)  # create empty
        code = main(["hub", "status", str(store_path), "--json"])
        assert code == 0
        assert capsys.readouterr().out == ""


class TestChaosAndSuperviseCommands:
    """`repro supervise`, `--chaos` plumbing and the `--retry-*` flags."""

    def test_supervise_builds_the_serve_command(self, monkeypatch,
                                                capsys):
        """Flag parsing lands in a correctly-shaped Supervisor without
        actually spawning anything."""
        import sys

        import repro.chaos.supervisor as supervisor_module

        seen = {}

        def fake_run(self):
            seen["command"] = self._command
            seen["restart_args"] = self._restart_args
            seen["max_restarts"] = self._max_restarts
            seen["window"] = self._restart_window
            return 0

        monkeypatch.setattr(supervisor_module.Supervisor, "run",
                            fake_run)
        code = main(["supervise", "--max-restarts", "7",
                     "--restart-window", "120", "--backoff-base", "0.1",
                     "--", "--port", "7000", "--store", "some-store"])
        assert code == 0
        assert seen["command"] == [sys.executable, "-m", "repro",
                                   "serve", "--port", "7000",
                                   "--store", "some-store"]
        assert seen["restart_args"] == ["--recover"]
        assert seen["max_restarts"] == 7
        assert seen["window"] == 120.0

    def test_supervise_propagates_the_run_exit_code(self, monkeypatch):
        import repro.chaos.supervisor as supervisor_module

        monkeypatch.setattr(supervisor_module.Supervisor, "run",
                            lambda self: 3)
        assert main(["supervise", "--", "--port", "7000"]) == 3

    def test_loadgen_dead_target_is_one_clean_line(self, capsys):
        """An unreachable external endpoint exits 2 with one error
        line — not a pile of per-worker tracebacks (satellite S3)."""
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here now
        code = main(["loadgen", "--host", "127.0.0.1",
                     "--port", str(port), "--workers", "2",
                     "--pushes", "2", "--retry-attempts", "2",
                     "--retry-deadline", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "not usable" in err
        assert f"127.0.0.1:{port}" in err

    def test_retry_flags_reach_the_worker_clients(self, tmp_path,
                                                  capsys):
        """--retry-* flags produce a working policy end to end."""
        code = main(["loadgen", "--workers", "1", "--pushes", "2",
                     "--chunk", "64", "--crash-every", "0",
                     "--retry-attempts", "5", "--retry-base-delay",
                     "0.01", "--retry-max-delay", "0.1",
                     "--retry-deadline", "10",
                     "--retry-op-timeout", "10"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verify_failures"] == 0
        assert summary["worker_errors"] == []

    def test_retry_policy_defaults_fill_unset_flags(self):
        import argparse

        from repro.chaos import RetryPolicy
        from repro.cli import _retry_policy

        bare = argparse.Namespace(retry_attempts=None,
                                  retry_base_delay=None,
                                  retry_max_delay=None,
                                  retry_deadline=None,
                                  retry_op_timeout=None)
        assert _retry_policy(bare) is None

        partial = argparse.Namespace(retry_attempts=7,
                                     retry_base_delay=None,
                                     retry_max_delay=None,
                                     retry_deadline=None,
                                     retry_op_timeout=None)
        policy = _retry_policy(partial)
        assert policy.attempts == 7
        assert policy.base_delay == RetryPolicy().base_delay
        assert policy.deadline == RetryPolicy().deadline

    def test_documented_default_attempts_yield_the_sdk_policy(self):
        """Passing ``--retry-attempts 40``, the documented default, must
        not reshape the policy: the result equals what a client built
        with no ``retry=`` dials with (0.25 s sleeps, 30 s deadline)."""
        import argparse

        from repro.cli import _retry_policy
        from repro.server.client import AsyncRemoteClient

        args = argparse.Namespace(retry_attempts=40, retry_base_delay=None,
                                  retry_max_delay=None,
                                  retry_deadline=None,
                                  retry_op_timeout=None)
        sdk = AsyncRemoteClient("127.0.0.1", 7707)._retry
        assert _retry_policy(args) == sdk
        assert (sdk.attempts, sdk.base_delay, sdk.max_delay, sdk.deadline,
                sdk.op_timeout) == (40, 0.05, 0.25, 30.0, 30.0)

    def test_serve_missing_chaos_plan_is_clean_error(self, tmp_path,
                                                     capsys):
        code = main(["serve", "--port", "0",
                     "--chaos", str(tmp_path / "no-plan.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_loadgen_chaos_plan_drives_client_faults(self, tmp_path,
                                                     capsys):
        """--chaos wraps the dialing transport: the run completes with
        zero verify failures even though injected faults fired."""
        import repro.chaos as chaos

        plan = chaos.FaultPlan(
            seed=7,
            client_transport=chaos.TransportFaults(reset_rate=0.05))
        plan_path = tmp_path / "plan.json"
        plan.dump(plan_path)
        code = main(["loadgen", "--workers", "2", "--pushes", "4",
                     "--chunk", "64", "--crash-every", "0",
                     "--chaos", str(plan_path),
                     "--retry-attempts", "50",
                     "--retry-base-delay", "0.01",
                     "--retry-max-delay", "0.1",
                     "--retry-deadline", "60"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["transport"] == "tcp"
        assert summary["verify_failures"] == 0
        assert summary["worker_errors"] == []

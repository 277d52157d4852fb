"""The command-line interface, end to end through temp files."""

import pytest

from repro.apk.io import load_apk, save_apk, save_apk_with_manifest
from repro.cli import main
from repro.vm.sessions import SessionEngine


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def test_build_protect_inspect_roundtrip(workdir, capsys):
    app = str(workdir / "app.rapk")
    protected = str(workdir / "protected.rapk")

    assert main(["build", "--name", "CliDemo", "--seed", "4", "--scale", "0.1",
                 "--out", app]) == 0
    out = capsys.readouterr().out
    assert "built CliDemo" in out

    # developer key seed for generated apps is seed + 7000
    assert main(["protect", "--in", app, "--out", protected,
                 "--key-seed", "7004", "--profiling-events", "200"]) == 0
    out = capsys.readouterr().out
    assert "bombs" in out

    assert main(["inspect", "--in", protected]) == 0
    out = capsys.readouterr().out
    assert "signature OK" in out
    assert "visible bomb sites:" in out


def test_repackage_and_simulate(workdir, capsys):
    app = str(workdir / "app.rapk")
    protected = str(workdir / "protected.rapk")
    pirated = str(workdir / "pirated.rapk")

    main(["build", "--name", "CliDemo2", "--seed", "5", "--scale", "0.1", "--out", app])
    main(["protect", "--in", app, "--out", protected, "--key-seed", "7005",
          "--profiling-events", "200"])
    capsys.readouterr()

    assert main(["repackage", "--in", protected, "--out", pirated]) == 0
    assert main(["simulate", "--in", pirated, "--devices", "4",
                 "--events", "400"]) == 0
    out = capsys.readouterr().out
    assert "detected on" in out


def test_attack_subcommand(workdir, capsys):
    app = str(workdir / "app.rapk")
    protected = str(workdir / "protected.rapk")
    main(["build", "--name", "CliDemo3", "--seed", "6", "--scale", "0.1", "--out", app])
    main(["protect", "--in", app, "--out", protected, "--key-seed", "7006",
          "--profiling-events", "200"])
    capsys.readouterr()

    # Exit code 0 = defense resisted.
    assert main(["attack", "--in", protected, "--attack", "symbolic"]) == 0
    out = capsys.readouterr().out
    assert "resisted" in out


def test_lint_subcommand(workdir, capsys):
    import json

    app = str(workdir / "app.rapk")
    protected = str(workdir / "protected.rapk")
    main(["build", "--name", "CliDemo4", "--seed", "7", "--scale", "0.1", "--out", app])
    main(["protect", "--in", app, "--out", protected, "--key-seed", "7007",
          "--profiling-events", "200", "--strict"])
    capsys.readouterr()

    # Exit code 0 = no error-severity diagnostics; both the clean build
    # and the strict-protected output must pass.
    assert main(["lint", "--in", app]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out

    assert main(["lint", "--in", protected]) == 0
    capsys.readouterr()

    assert main(["lint", "--in", protected, "--json"]) == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert all(entry["severity"] != "error" for entry in parsed)

    assert main(["lint", "--in", protected, "--rules", "weak-salt"]) == 0
    capsys.readouterr()


def test_lint_subcommand_flags_violations(workdir, capsys):
    from repro.apk import Resources, build_apk
    from repro.crypto import RSAKeyPair
    from repro.dex import assemble

    dex = assemble(
        ".class A\n.method m 0\n"
        "invoke r0, android.pm.get_public_key\nreturn r0\n.end"
    )
    apk = build_apk(dex, Resources(strings={"app_name": "A"}),
                    RSAKeyPair.generate(seed=77))
    path = str(workdir / "leaky.rapk")
    save_apk_with_manifest(apk, path)

    assert main(["lint", "--in", path]) == 1
    out = capsys.readouterr().out
    assert "text-search-surface" in out

    assert main(["lint", "--in", path, "--rules", "no-such-rule"]) == 2
    err = capsys.readouterr().err
    assert "no-such-rule" in err


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "leaked-trigger-const" in out
    assert "read-uninit" in out

    assert main(["lint"]) == 2
    assert "--in is required" in capsys.readouterr().err


def test_apk_file_roundtrip(workdir, small_apk):
    path = str(workdir / "x.rapk")

    save_apk_with_manifest(small_apk, path)
    restored = load_apk(path)
    restored.verify()
    assert restored.entries["classes.dex"] == small_apk.entries["classes.dex"]


def test_load_rejects_garbage(workdir):
    path = workdir / "junk.rapk"
    path.write_bytes(b"not an apk")
    from repro.errors import ApkError

    with pytest.raises(ApkError):
        load_apk(str(path))


def test_serve_reports_data_dir_then_recover(workdir, capsys):
    from repro.crypto import RSAKeyPair
    from repro.reporting import DetectionReport, report_to_json, sign_report

    attest = RSAKeyPair.generate(seed=5)
    lines = []
    for i in range(4):
        report = DetectionReport(
            app_name="Game", bomb_id="b0", device_id=f"d{i}",
            observed_key_hex="bb" * 20, timestamp=float(i), nonce=100 + i,
        )
        lines.append(report_to_json(sign_report(report, attest)))
    reports_path = workdir / "reports.jsonl"
    reports_path.write_text("\n".join(lines) + "\n")
    data_dir = str(workdir / "state")

    code = main([
        "serve-reports", "--app", "Game", "--key-hex", "aa" * 20,
        "--reports", str(reports_path), "--data-dir", data_dir,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "accepted=4" in out
    assert "verdict for Game: takedown" in out

    # The ingest journaled durably: a fresh process rebuilds the same
    # verdict from disk alone.
    code = main(["recover", "--data-dir", data_dir])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict for Game: takedown" in out
    assert "1 snapshot(s) restored" in out


def test_recover_missing_dir_fails(workdir, capsys):
    code = main(["recover", "--data-dir", str(workdir / "nope")])
    assert code == 1
    assert "no durable state" in capsys.readouterr().err


def _naive_apk_file(workdir):
    """A naive-protected corpus app saved to disk, plus its clean twin."""
    from repro.core.naive import NaiveProtector
    from repro.corpus import build_app
    from repro.crypto import RSAKeyPair

    bundle = build_app("CliDetect", seed=3, scale=0.2)
    clean = str(workdir / "clean.rapk")
    save_apk_with_manifest(bundle.apk, clean)
    naive, _ = NaiveProtector(seed=1).protect(
        bundle.apk, RSAKeyPair.generate(seed=77)
    )
    naive_path = str(workdir / "naive.rapk")
    save_apk_with_manifest(naive, naive_path)
    return clean, naive_path


def test_detect_subcommand_exit_codes(workdir, capsys):
    clean, naive = _naive_apk_file(workdir)

    assert main(["detect", "--in", clean]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out

    assert main(["detect", "--in", naive]) == 1
    out = capsys.readouterr().out
    assert "detection_probe" in out
    assert "score=" in out


def test_detect_top_and_min_score(workdir, capsys):
    _, naive = _naive_apk_file(workdir)

    assert main(["detect", "--in", naive, "--top", "2"]) == 1
    out = capsys.readouterr().out
    assert "suppressed" in out
    assert out.count("score=") == 2

    # An absurd threshold silences everything -> clean exit.
    assert main(["detect", "--in", naive, "--min-score", "1000"]) == 0
    capsys.readouterr()


def test_detect_json_output(workdir, capsys):
    import json

    _, naive = _naive_apk_file(workdir)
    assert main(["detect", "--in", naive, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_findings"] > 0
    assert payload["findings"][0]["score"] >= payload["findings"][-1]["score"]
    assert {"method", "branch_pc", "kind", "sinks"} <= set(payload["findings"][0])
    assert payload["by_kind"].get("detection_probe", 0) > 0


def test_detect_sarif_output(workdir, capsys):
    import json

    clean, naive = _naive_apk_file(workdir)

    assert main(["detect", "--in", naive, "--format", "sarif"]) == 1
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["version"] == "2.1.0"
    (run,) = sarif["runs"]
    assert run["tool"]["driver"]["name"] == "repro-detect"
    assert run["results"]
    result = run["results"][0]
    assert result["ruleId"] == "hso-finding"
    (location,) = result["locations"]
    assert "@" in location["logicalLocations"][0]["fullyQualifiedName"]

    assert main(["detect", "--in", clean, "--format", "sarif"]) == 0
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["runs"][0]["results"] == []


def test_lint_format_sarif(workdir, capsys):
    import json

    from repro.apk import Resources, build_apk
    from repro.crypto import RSAKeyPair
    from repro.dex import assemble

    dex = assemble(
        ".class A\n.method m 0\n"
        "invoke r0, android.pm.get_public_key\nreturn r0\n.end"
    )
    apk = build_apk(dex, Resources(strings={"app_name": "A"}),
                    RSAKeyPair.generate(seed=77))
    path = str(workdir / "leaky.rapk")
    save_apk_with_manifest(apk, path)

    assert main(["lint", "--in", path, "--format", "sarif"]) == 1
    sarif = json.loads(capsys.readouterr().out)
    (run,) = sarif["runs"]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = {result["ruleId"] for result in run["results"]}
    assert "text-search-surface" in rule_ids
    declared = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert rule_ids <= declared
    levels = {result["level"] for result in run["results"]}
    assert levels <= {"error", "warning", "note"}

    # --json stays a working alias.
    assert main(["lint", "--in", path, "--json"]) == 1
    parsed = json.loads(capsys.readouterr().out)
    assert isinstance(parsed, list)


def test_attack_subcommand_static(workdir, capsys):
    clean, naive = _naive_apk_file(workdir)

    assert main(["attack", "--in", naive, "--attack", "static"]) == 1
    out = capsys.readouterr().out
    assert "static_trigger_analysis" in out

    assert main(["attack", "--in", clean, "--attack", "static"]) == 0
    out = capsys.readouterr().out
    assert "resisted" in out


def test_simulate_seed_reseeds_every_session(pirated_apk, workdir, capsys):
    """``--seed N`` plays session i with runtime and event seed
    ``N * 100 + i`` (SessionEngine's protocol), not the same streams
    for every N."""
    path = str(workdir / "pirated.rapk")
    save_apk(pirated_apk, path)
    assert main(["simulate", "--in", path, "--devices", "3", "--events", "150",
                 "--seed", "1"]) == 0
    printed = capsys.readouterr().out.splitlines()[:3]
    expected = [
        f"device {o.index}: {'DETECTED' if o.detections else 'quiet'}  "
        f"(bombs evaluated: {len(o.bombs.bombs_with('evaluated'))}, "
        f"reports: {len(o.reports)})"
        for o in SessionEngine(pirated_apk, seed=1, events=150).play(3)
    ]
    assert printed == expected

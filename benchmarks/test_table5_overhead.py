"""Table 5: execution-time overhead of protection.

Paper: the same 20,000-event stream is fed to the original and the
protected app; overhead = (Tb - Ta) / Ta, at most 2.6% (avg ~2%).
The small overhead comes from (1) hot methods excluded, (2) payloads
dormant until triggered, (3) decrypted payloads cached.

We measure with the interpreter's deterministic cost model (one unit
per instruction, published weights per framework call), which removes
host noise; wall-clock is also reported via pytest-benchmark.

Includes the hot-method-exclusion ablation the paper's design implies.
"""

from conftest import PROFILING_EVENTS, SCALE, print_table

from repro import BombDroid, BombDroidConfig
from repro.fuzzing import DynodroidGenerator
from repro.vm import ContainmentPolicy, DevicePopulation, PlayOutcome, PlaySession

EVENTS = max(800, int(3000 * SCALE))


def _run_session(apk, seed: int, containment=None) -> PlayOutcome:
    session = PlaySession(
        apk.dex(), DevicePopulation(seed=seed).sample(),
        package=apk.install_view(), seed=seed, containment=containment,
    )
    return session.play(DynodroidGenerator(apk.dex(), seed=seed).stream(EVENTS))


def _cost_of(apk, seed: int) -> int:
    return _run_session(apk, seed).cost


def test_table5(benchmark, bundles, protections, named_app_names):
    rows = []
    overheads = []

    def run():
        for index, name in enumerate(named_app_names):
            original = bundles[name].apk
            protected, _ = protections[name]
            cost_a = _cost_of(original, seed=70 + index)
            cost_b = _cost_of(protected, seed=70 + index)
            overhead = (cost_b - cost_a) / cost_a
            overheads.append(overhead)
            rows.append((name, cost_a, cost_b, f"{overhead:+.1%}"))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"Table 5 (execution cost over {EVENTS} events; paper: <=2.6% time overhead)",
        ["app", "cost original", "cost protected", "overhead"],
        rows,
    )
    mean = sum(overheads) / len(overheads)
    print(f"mean overhead: {mean:+.1%}")

    # Shape: overhead stays a modest fraction of baseline cost (the
    # paper reports <=2.6% wall-clock; our synthetic apps are ~10x
    # smaller and interpreted, so fixed per-bomb costs weigh relatively
    # more -- see EXPERIMENTS.md deviation 2).
    assert mean < 0.6
    assert all(overhead < 1.2 for overhead in overheads)


def test_table5_containment_overhead(benchmark, protections, named_app_names):
    """Containment guard: with a ContainmentPolicy armed and zero faults
    injected, the boundary must be free -- <5% cost delta and bit-for-bit
    identical bomb statistics versus the plain protected run."""
    rows = []

    def run():
        for index, name in enumerate(named_app_names):
            protected, _ = protections[name]
            plain = _run_session(protected, seed=70 + index)
            contained = _run_session(
                protected, seed=70 + index, containment=ContainmentPolicy()
            )
            delta = (contained.cost - plain.cost) / plain.cost
            rows.append((name, plain.cost, contained.cost, f"{delta:+.2%}"))
            assert abs(delta) < 0.05, f"{name}: containment overhead {delta:+.2%}"
            # Fault-free containment is semantically invisible: same
            # trigger/detection numbers, same observable output.
            assert contained.bomb_counts == plain.bomb_counts
            assert contained.detections == plain.detections
            assert contained.logs == plain.logs
            assert contained.ui_effects == plain.ui_effects
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Table 5 containment guard (policy on, no faults; must be <5%)",
        ["app", "cost plain", "cost contained", "delta"],
        rows,
    )


def test_table5_hot_method_ablation(benchmark, bundles, named_app_names):
    """Instrumenting hot methods (no exclusion, no loop avoidance)
    must cost measurably more than the default policy."""
    name = named_app_names[0]
    bundle = bundles[name]

    def run():
        results = {}
        for label, kwargs in (
            ("default", {}),
            ("no-hot-exclusion", {"exclude_hot_methods": False, "avoid_loops": False}),
        ):
            config = BombDroidConfig(
                seed=17, profiling_events=PROFILING_EVENTS, **kwargs
            )
            protected, _ = BombDroid(config).protect(
                bundle.apk, bundle.developer_key
            )
            base = _cost_of(bundle.apk, seed=71)
            cost = _cost_of(protected, seed=71)
            results[label] = (cost - base) / base
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\n=== Table 5 ablation ({name}) === default: {results['default']:+.1%} "
        f"vs no-hot-exclusion: {results['no-hot-exclusion']:+.1%}"
    )
    assert results["no-hot-exclusion"] > results["default"]

"""Section 8.4 side effects: false positives and code-size increase.

Paper: ten hours of Dynodroid on every protected (but genuine) app
produced zero false positives; APK size grew 8-13% (average 9.7%).
"""

from conftest import FUZZ_HOUR, print_table

from repro.fuzzing import DynodroidGenerator, FuzzSession
from repro.vm import DevicePopulation


def test_zero_false_positives(benchmark, protections, named_app_names):
    """Response code must never run on a non-repackaged app."""
    outcomes = []

    def run():
        population = DevicePopulation(seed=900)
        for index, name in enumerate(named_app_names):
            protected, _ = protections[name]
            session = FuzzSession(
                protected.dex(),
                DynodroidGenerator(protected.dex(), seed=900 + index),
                population.sample(),
                package=protected.install_view(),
                seed=900 + index,
            )
            result = session.run_for(FUZZ_HOUR / 2)
            outcomes.append(
                (
                    name,
                    result.events_played,
                    len(result.bombs.bombs_with("inner_met")),
                    len(result.bombs.bombs_with("detected")),
                    len(result.bombs.bombs_with("responded")),
                )
            )
        return outcomes

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Section 8.4 false positives (genuine installs; paper: zero)",
        ["app", "events", "bombs inner-met", "detections", "responses"],
        outcomes,
    )
    # Bombs may fire and *check* on a genuine app; they must never
    # detect or respond.
    assert all(row[3] == 0 for row in outcomes)
    assert all(row[4] == 0 for row in outcomes)


def test_code_size_increase(benchmark, protections, named_app_names):
    rows = []
    increases = []

    def run():
        for name in named_app_names:
            _, report = protections[name]
            increases.append(report.size_increase)
            rows.append(
                (
                    name,
                    report.size_before,
                    report.size_after,
                    f"{report.size_increase:+.1%}",
                    report.instructions_before,
                    report.instructions_after,
                )
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Section 8.4 size increase (paper: 8-13%, avg 9.7% of APK)",
        ["app", "APK before", "APK after", "increase", "instrs before", "instrs after"],
        rows,
    )
    mean = sum(increases) / len(increases)
    print(f"mean APK size increase: {mean:+.1%}")
    assert 0.03 <= mean <= 0.30
    assert all(increase < 0.40 for increase in increases)

import pytest

from perfbench import tracer as tracing


def _synthetic(spans):
    """spans: (name, parent, start, end[, value]) with parents by index."""
    tr = tracing.Tracer()
    for name, parent, start, end, *value in spans:
        idx = tr.open(name, value[0] if value else 0.0)
        tr.close(idx)
        tr.parent[idx] = parent
        tr.start[idx] = start
        tr.end[idx] = end
    return tr


def test_self_time_subtracts_direct_children():
    tr = _synthetic([
        ("cli.run", -1, 0.0, 10.0),
        ("engine.certificate", 0, 1.0, 9.0),
        ("engine.moment_M1", 1, 1.0, 4.0),
        ("engine.moment_M2", 1, 4.0, 8.5),
        ("gridsum.plan_run", 3, 5.0, 6.0),
    ])
    totals = tracing.span_totals(tr)
    assert totals["cli.run"] == {"s": 10.0, "self_s": 2.0, "calls": 1}
    assert totals["engine.certificate"]["self_s"] == pytest.approx(0.5)
    assert totals["engine.moment_M2"]["self_s"] == pytest.approx(3.5)
    assert totals["gridsum.plan_run"]["self_s"] == pytest.approx(1.0)
    assert tracing.child_time(tr, "gridsum.plan_run", "engine.moment_M2") == 1.0
    assert tracing.child_time(tr, "gridsum.plan_run", "cli.run") == 0.0


def test_nested_same_name_counts_time_once():
    tr = _synthetic([
        ("precision.real", -1, 0.0, 4.0),
        ("precision.real", 0, 1.0, 2.0),
    ])
    row = tracing.span_totals(tr)["precision.real"]
    assert row == {"s": 4.0, "self_s": 4.0, "calls": 2}


def test_useful_node_share_takes_last_level_of_each_integral():
    tr = _synthetic([
        ("quadrature.integrate_refine", -1, 0.0, 3.0),
        ("quadrature.level", 0, 0.0, 1.0, 100.0),
        ("quadrature.level", 0, 1.0, 3.0, 200.0),
        ("quadrature.integrate_refine", -1, 3.0, 4.0),
        ("quadrature.level", 3, 3.0, 3.5, 50.0),
        ("quadrature.level", 3, 3.5, 4.0, 50.0),
    ])
    assert tracing.useful_node_share(tr) == pytest.approx(250.0 / 400.0)


def _patched_attrs():
    from rzeta import cli, engine, gridsum, jets, precision, primes, resonator

    return {
        (mod.__name__, attr): getattr(mod, attr)
        for mod, attr in [
            (cli, "run"), (engine, "exp_sum_on_grid"),
            (engine, "integrate_refine"), (jets, "real"), (resonator, "rlog"),
            (primes, "sieve_primes"), (precision, "real"),
            (gridsum, "_nufft_grid"),
        ]
    } | {
        ("UniformGridPlan", "__init__"): gridsum.UniformGridPlan.__init__,
        ("numpy.fft", "fft"): __import__("numpy").fft.fft,
    }


def test_install_wraps_lookup_sites_and_uninstall_restores(tmp_path):
    from rzeta import cli

    before = _patched_attrs()
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        during = _patched_attrs()
        assert all(during[k] is not before[k] for k in before)
        out = str(tmp_path / "s.json")
        with tr.job_scope(0):
            assert cli.run(["ssum", "--x", "3", "--b", "2", "--ell", "0",
                            "--no-timestamp", "--output", out]) == 0
        assert cli.run(["sieve", "--limit", "10", "--output", out]) == 0
    finally:
        tr.uninstall()
    after = _patched_attrs()
    assert all(after[k] is before[k] for k in before)
    totals = tracing.span_totals(tr)
    assert totals["cli.run"]["calls"] == 1  # the untraced call left no span
    assert totals["jets.local_factor_jet"]["calls"] == 2  # primes 2 and 3
    assert set(tr.job) == {0}
    assert all(tr.end[i] >= tr.start[i] for i in range(len(tr.start)))

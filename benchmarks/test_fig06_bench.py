"""Bench: Fig 6 -- truncated curves on the 16x22 mesh."""


from repro.experiments import fig06_truncation


def test_fig06_truncation_gaps(run_once, scale):
    result = run_once(fig06_truncation.run, scale)
    print()
    print(fig06_truncation.report(result))
    for name, curve in result.curves.items():
        # Truncation creates gaps ...
        assert curve.n_gaps() > 0, name
        # ... and they all sit in the upper (truncated) region of the mesh.
        mesh = curve.mesh
        for rank, _ in result.gaps[name]:
            y_after = int(mesh.coords(int(curve.order[rank + 1]))[1])
            y_before = int(mesh.coords(int(curve.order[rank]))[1])
            assert max(y_after, y_before) >= 16

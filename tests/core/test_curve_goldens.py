"""Curve-order goldens: the SHA-256 of every named curve's node order.

Each digest hashes ``get_curve(name, mesh).order`` as little-endian int64
bytes.  The meshes cover the paper's machines (16x22, 16x16), their
transpose, a small odd mesh, the fig12 8x8x8 torus and three small 3-D
boxes.  5x3x2 is there because a 3-D S-curve snakes each z-plane along x
even where a 2-D ``runs="short"`` S-curve would run along y.  Any change
to any ordering fails here; H-indexing has no 3-D construction and must
keep raising.
"""

import hashlib

import numpy as np
import pytest

from repro.core.curves import curve_names, get_curve
from repro.mesh.topology import Mesh

NO_3D = "no 3-D construction"

GOLDEN = {
    ((16, 22), False): {
        "h-indexing": "825eac8c10cf3c214b426c5b26d462a3e28a150e5ccc098ba4ff1eaf1de82da7",
        "hilbert": "76e6cffe245f58a70dfe3e9433096d4e2e43364cead8c9b211da18312699c923",
        "row-major": "c96f0d70b8ad5cb166e28e8890fb285195d36c8952433f806b5b4708403520fc",
        "s-curve": "7b34a868c491a8c4d0da25ce7fba93f304831f1b9c1b9682914a875ac8ef0e3a",
    },
    ((22, 16), False): {
        "h-indexing": "feb96101d86ca0e7db77b06fdfe05e71ec4db42cd135aab0a68c4394046f5588",
        "hilbert": "ceba4fc601efbd2ed2ac2f71573ff2a244a73689084b06499de0636635776bf6",
        "row-major": "c96f0d70b8ad5cb166e28e8890fb285195d36c8952433f806b5b4708403520fc",
        "s-curve": "0640e9e197e95563608b23f5efa4b99f0cb4517477682253e8121032d4f72954",
    },
    ((16, 16), False): {
        "h-indexing": "dc8eed79f134b575b3a3f37e66e5556e04cd47f315b2ee3d055ff249460ddd24",
        "hilbert": "0cf0aed20e0282c36c1e0aa77c275bf82c659246d3e119a196e710d9691c7b18",
        "row-major": "bbd330b12e8159e117376ef24fa106413bc9fc18032a0d43e95c5dae5e47953f",
        "s-curve": "8303bab0752f727cec1a7d7ac1fe8f816d18a6d2407d3404b27d13c0e438c4f0",
    },
    ((5, 7), False): {
        "h-indexing": "1545ad113a43473d9c85d5c54799817c04b67b2ea9a266f83cb43933e95e6097",
        "hilbert": "25456bc549cd0509fbb8f1da64258c6d1ca1efe292b6456278607be9de338b79",
        "row-major": "3eb67723262a342a162c03353f1dd3a99bfeaa735dc8087744ea62c633c2d8cd",
        "s-curve": "f311e0b429ed82f2deb2b3e8ec08dbc6501866ee69e45a62af2c76c9e661e83c",
    },
    ((8, 8, 8), True): {
        "h-indexing": NO_3D,
        "hilbert": "d45ca9c0b31cfea683ec43bea95c6d318447c435cf11116b4cd21cdffaf92ea8",
        "row-major": "5738153ec97595b1c1e4dc027f7b7fb4534f19ed2ce9f9ee712e6d34a384cde7",
        "s-curve": "d1569e524d49fe73c2a0c7ac1f7e66f3325d4557b031c40aab2abe859a51ae56",
    },
    ((4, 4, 4), False): {
        "h-indexing": NO_3D,
        "hilbert": "223c2734540b0016884d9fb23ea840c087e4377fc9c79043c84d1c68adeb3cd3",
        "row-major": "7a4644928f3a08db905254fd7e5e53ef19a46d932a2ecd372b45462413a82619",
        "s-curve": "c507159cafc0308c9be6c96c9d7f26a6448728e9b3d8178b791d3aab547c5cc2",
    },
    ((3, 5, 2), False): {
        "h-indexing": NO_3D,
        "hilbert": "5af1ec9f4fde7b96282f8989a7dbcc8551dad0a81649c38ba421457182214665",
        "row-major": "394a42f05d4ef71e6c3270cc4fb38075f42683eb24255ab033cbf89ecccf5143",
        "s-curve": "6fa027b7aff9c1a7a8cc54f51144f95f7a5843ce8a2d9a241cf9fcd11834d3e1",
    },
    ((5, 3, 2), False): {
        "h-indexing": NO_3D,
        "hilbert": "968e05468efb0e1a8d65d467ad267d7454c443f78169d950728c57de209a587c",
        "row-major": "394a42f05d4ef71e6c3270cc4fb38075f42683eb24255ab033cbf89ecccf5143",
        "s-curve": "447358027ff05cf9ab9d058e4190d54b96cb332858bf2a86560e22c9ffcd7799",
    },
}


def test_goldens_cover_every_curve_name():
    for digests in GOLDEN.values():
        assert sorted(digests) == curve_names()


@pytest.mark.parametrize(
    "shape,torus,name",
    [(shape, torus, name) for (shape, torus), d in GOLDEN.items() for name in d],
)
def test_curve_order_digest(shape, torus, name):
    mesh = Mesh(*shape, torus=torus)
    expected = GOLDEN[(shape, torus)][name]
    if expected == NO_3D:
        with pytest.raises(ValueError, match=NO_3D):
            get_curve(name, mesh)
        return
    order = np.ascontiguousarray(get_curve(name, mesh).order, dtype="<i8")
    assert hashlib.sha256(order.tobytes()).hexdigest() == expected

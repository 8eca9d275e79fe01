import numpy as np
import pytest

from cstarreg import gallery
from cstarreg.errors import NoWitness
from cstarreg.gridalg import GridElement, sup_norm, uniform_gap_regular
from cstarreg.harness import check_equivalences, regular_approximant


class TestCheckEquivalences:
    def test_const_unitary_all_hold(self):
        ge = gallery.gallery("const-unitary", 64)
        rep = check_equivalences(ge, 0.0, [0.1, 0.3, 0.6], element_name="const-unitary")
        assert rep.verdict == "consistent"
        assert all(c.holds for c in rep.cond2 + rep.cond3 + rep.cond4)
        lo, up = rep.cond1
        assert lo == 0.0 and up <= 2.0 / 63 + 1e-12

    def test_osc_consistent(self):
        ge = gallery.gallery("osc", 256)
        rep = check_equivalences(ge, 0.0, [0.05, 0.1, 0.2, 0.5], element_name="osc")
        assert rep.verdict == "consistent"
        assert all(c.holds for c in rep.cond2)

    def test_disk_z_consistent_with_obstruction(self):
        ge = gallery.gallery("disk-z", 32)
        rep = check_equivalences(ge, 0.3, [0.5, 0.95], element_name="disk-z")
        assert rep.verdict == "consistent"
        # at delta = 0.5 < dist = 1 all four conditions fail together
        assert not rep.cond2[0].holds
        assert not rep.cond3[0].holds
        assert not rep.cond4[0].holds
        assert rep.cond2[0].detail["obstruction"]["windings"] == [1]

    def test_rejects_delta_below_gamma(self):
        ge = gallery.gallery("linear", 64)
        with pytest.raises(ValueError):
            check_equivalences(ge, 0.5, [0.3, 0.7])

    @pytest.mark.parametrize("gamma, deltas", [(0.0, [0.2, np.nan]), (np.nan, [0.2]),
                                               (0.0, [0.2, np.inf]), (-np.inf, [0.2])])
    def test_rejects_non_finite_levels(self, gamma, deltas):
        ge = gallery.gallery("osc", 64)
        with pytest.raises(ValueError, match="must be finite"):
            check_equivalences(ge, gamma, deltas)

    def test_report_dict_shape(self):
        ge = gallery.gallery("linear", 64)
        rep = check_equivalences(ge, 0.0, [0.2, 0.5], element_name="linear")
        d = rep.to_dict()
        assert d["element"] == "linear"
        assert d["deltas"] == [0.2, 0.5]
        assert len(d["cond2"]) == len(d["cond3"]) == len(d["cond4"]) == 2
        assert d["verdict"] in ("consistent", "inconsistent")


class TestRegularApproximant:
    def test_osc(self):
        n = 256
        ge = gallery.gallery("osc", n)
        x, dist = regular_approximant(ge, 0.1, 0.01)
        ok, gap = uniform_gap_regular(x, gap_min=0.009)
        assert ok and gap >= 0.009
        assert dist <= 0.11 + 1.0 / n

    def test_rankdrop(self):
        ge = gallery.gallery("rankdrop", 128)
        x, dist = regular_approximant(ge, 0.2, 0.05)
        assert dist <= 0.25 + 1e-9
        ok, _ = uniform_gap_regular(x, gap_min=0.045)
        assert ok

    def test_approximant_matches_phase(self):
        ge = gallery.gallery("osc", 256)
        x, _ = regular_approximant(ge, 0.1, 0.01)
        # above the cut the approximant keeps the original phase exactly
        f = ge.values[:, 0, 0]
        g = x.values[:, 0, 0]
        mask = np.abs(f) > 0.1
        ph_err = np.abs(np.angle(g[mask] / f[mask]))
        assert ph_err.max() <= 1e-10

    def test_obstruction_blocks_witness(self):
        ge = gallery.gallery("disk-z", 32)
        with pytest.raises(NoWitness):
            regular_approximant(ge, 0.5 + 1e-6, 0.01)

    def test_rejects_nonpositive_eps(self):
        ge = gallery.gallery("linear", 64)
        with pytest.raises(ValueError):
            regular_approximant(ge, 0.2, 0.0)

    def test_distance_beats_naive_bound(self):
        ge = gallery.gallery("linear", 64)
        x, dist = regular_approximant(ge, 0.3, 0.05)
        assert dist <= 0.3 + 0.05 + 1e-9
        assert sup_norm(GridElement(domain=ge.domain, values=x.values)) > 0

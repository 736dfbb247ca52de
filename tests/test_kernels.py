"""The two bitmask queries behind the exact oracle: max-coverage pick
(the ratio bound), and packing bound with branching target in one pass.
Every tie goes to the lowest vertex id."""

from domset.oracles import _best_cover, _bound_and_target


class TestPureKernel:
    def test_best_cover_ties_go_low(self):
        assert _best_cover([0b011, 0b110, 0b101], 0b111) == (0, 2)

    def test_best_cover_excluded(self):
        assert _best_cover([0b011, 0b110, 0b101], 0b111, excluded=0b001) == (1, 2)

    def test_best_cover_all_excluded(self):
        assert _best_cover([0b1], 0b1, excluded=0b1) == (-1, 0)

    def test_best_cover_empty_active(self):
        assert _best_cover([0b11, 0b10], 0) == (0, 0)

    def test_pack_bound_disjoint(self):
        # two vertices with disjoint closed neighborhoods
        assert _bound_and_target([0b0011, 0b0011, 0b1100, 0b1100], 0b1111)[0] == 2

    def test_pack_bound_infeasible(self):
        assert _bound_and_target([0b01, 0b10], 0b11, banned=0b10)[0] == -1

    def test_pick_target_prefers_fewest_dominators(self):
        assert _bound_and_target([0b001, 0b111, 0b110], 0b111)[1] == 0

    def test_pick_target_empty(self):
        assert _bound_and_target([0b1], 0)[1] == -1

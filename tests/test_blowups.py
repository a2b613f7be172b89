from hypothesis import given
from hypothesis import strategies as st

from ruledsurf import (
    BigAnticanonicalCertificate,
    BlownUpSurface,
    BlowupScenario,
    Curve,
    ExtClass,
    NumClass,
    RuledSurface,
    SplitBundle,
    big_test,
    canonical_class,
    certify_big_anticanonical,
    check_class,
)


def base(g=1, d1=1, d2=0):
    return RuledSurface(Curve(g), SplitBundle((d1, d2)))


class TestBlownUpSurface:
    def test_k_squared_drops_by_one(self):
        s = BlownUpSurface(base(2, 3, 0))
        k = s.canonical_class()
        assert check_class(s, k, k) == -8
        s1 = BlownUpSurface(base(2, 3, 0), 1)
        k1 = s1.canonical_class()
        assert check_class(s1, k1, k1) == -9

    def test_k_squared_n3_g2(self):
        s = BlownUpSurface(base(2, 4, 1), n=3)
        k = s.canonical_class()
        assert check_class(s, k, k) == -11

    def test_k_squared_grid(self):
        for g in range(6):
            for n in range(21):
                s = BlownUpSurface(base(g, 2, 0), n=n)
                k = s.canonical_class()
                assert check_class(s, k, k) == 8 * (1 - g) - n


class TestRecords:
    """Beyond the contract in tests/test_records.py: the certifier's output,
    steps, str."""

    def test_keywords_and_defaults(self):
        cert = BigAnticanonicalCertificate(
            certified=True, big_part=NumClass(2, -1), big_part_is_big=True,
            effective_part=ExtClass(0, 0, (-1,)), steps_on_strict_transform=True)
        assert cert == certify_big_anticanonical(BlowupScenario(base(), NumClass(0, 0), (True,)))

    def test_steps_stored_as_tuple(self):
        assert BlowupScenario(base(), NumClass(0, 1), [True, False]).steps == (True, False)

    def test_repr_and_str(self):
        assert str(ExtClass(1, 2, (0, -1))) == "1*xi + 2*f + -1*e2"


class TestScenario:
    def test_fibers_on_deg3_elliptic(self):
        # deg L = 3 over genus 1: budget of two fibers, seven blow-ups on
        # their strict transforms, -K - 2f = (2, -5) still big.
        scenario = BlowupScenario(base(1, 3, 0), NumClass(0, 2), (True,) * 7)
        assert certify_big_anticanonical(scenario) == BigAnticanonicalCertificate(
            certified=True, big_part=NumClass(2, -5), big_part_is_big=True,
            effective_part=ExtClass(0, 2, (-1,) * 7), steps_on_strict_transform=True)

    def test_section_on_deg1_elliptic(self):
        scenario = BlowupScenario(base(1, 1, 0), NumClass(1, -1), (True,) * 4)
        cert = certify_big_anticanonical(scenario)
        assert cert.certified
        assert cert.big_part == NumClass(1, 0)

    def test_empty_chain_matches_big_test(self):
        for g, d1, d2 in ((1, 1, 0), (2, 2, 0), (2, 5, 0), (3, 4, -3)):
            b = base(g, d1, d2)
            cert = certify_big_anticanonical(BlowupScenario(b, NumClass(0, 0), ()))
            assert cert.certified == big_test(b, -canonical_class(b))

    def test_flipped_flag_decertifies(self):
        flags = [True] * 7
        flags[3] = False
        scenario = BlowupScenario(base(1, 3, 0), NumClass(0, 2), flags)
        cert = certify_big_anticanonical(scenario)
        assert not cert.certified
        assert cert.big_part_is_big  # only the incidence conjunction fails

    def test_oversized_budget_decertifies(self):
        scenario = BlowupScenario(base(1, 3, 0), NumClass(0, 6), (True,))
        assert not certify_big_anticanonical(scenario).certified

    @given(st.integers(0, 3))
    def test_budget_monotone(self, shrink):
        # shrinking an already-certified budget keeps it certified
        scenario = BlowupScenario(base(1, 3, 0), NumClass(0, 2 - shrink % 3),
                                  (True,) * 5)
        big_part_ok = big_test(base(1, 3, 0),
                               -canonical_class(base(1, 3, 0)) - scenario.budget_class)
        assert certify_big_anticanonical(scenario).certified == big_part_ok

    @given(st.permutations([True, True, True, False, True]))
    def test_order_independent(self, flags):
        scenario = BlowupScenario(base(1, 3, 0), NumClass(0, 2), flags)
        assert not certify_big_anticanonical(scenario).certified

"""Tests for RowClone-based subarray boundary mapping."""

import pytest

from repro.bender import DramBenderHost
from repro.reveng.subarrays import SubarrayMap, SubarrayMapper
from repro.errors import ReverseEngineeringError


class TestSubarrayMapper:
    def test_recovers_exact_boundaries(self, ideal_host):
        mapper = SubarrayMapper(ideal_host, bank=0)
        recovered = mapper.map_bank(coarse_step=32)
        geometry = ideal_host.module.config.geometry
        expected = tuple(
            (s * geometry.rows_per_subarray, (s + 1) * geometry.rows_per_subarray)
            for s in range(geometry.subarrays_per_bank)
        )
        assert recovered.ranges == expected

    def test_recovers_on_real_chip_too(self, real_host):
        # RowClone is reliable enough on the calibrated die for the
        # mapper's threshold to hold.
        mapper = SubarrayMapper(real_host, bank=0)
        recovered = mapper.map_bank(coarse_step=48)
        assert recovered.count == 4

    def test_probe_count_is_sublinear(self, ideal_host):
        mapper = SubarrayMapper(ideal_host, bank=0)
        mapper.map_bank(coarse_step=32)
        total_rows = ideal_host.module.config.geometry.rows_per_bank
        assert mapper.probe_count < total_rows // 2

    def test_same_subarray_probe(self, ideal_host):
        mapper = SubarrayMapper(ideal_host, bank=0)
        assert mapper.same_subarray(10, 100)
        assert not mapper.same_subarray(10, 200)

    def test_exhaustive_groups(self, ideal_host):
        mapper = SubarrayMapper(ideal_host, bank=0)
        rows = [5, 100, 200, 300, 400, 500]
        groups = mapper.exhaustive_groups(rows)
        assert sorted(sorted(g) for g in groups) == [
            [5, 100], [200, 300], [400, 500],
        ]

    def test_boundary_probes_pass_the_error_gate(self, ideal_module):
        # Probing across a subarray boundary is the point of the mapper:
        # the failed copy must not trip the static RowClone check (FC113).
        host = DramBenderHost(ideal_module, verify="error")
        recovered = SubarrayMapper(host, bank=0).map_bank(coarse_step=32)
        assert recovered.count == ideal_module.config.geometry.subarrays_per_bank

    def test_rejects_bad_step(self, ideal_host):
        mapper = SubarrayMapper(ideal_host, bank=0)
        with pytest.raises(ValueError):
            mapper.map_bank(coarse_step=0)


class TestSubarrayMap:
    def test_lookup(self):
        table = SubarrayMap(ranges=((0, 10), (10, 30)))
        assert table.subarray_of(0) == 0
        assert table.subarray_of(9) == 0
        assert table.subarray_of(10) == 1
        assert list(table.rows_of(0)) == list(range(10))
        assert table.count == 2

    def test_uncovered_row(self):
        table = SubarrayMap(ranges=((0, 10),))
        with pytest.raises(ReverseEngineeringError):
            table.subarray_of(10)

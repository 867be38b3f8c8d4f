"""The package's public names, and the grammar of every source file."""

import ast
import pathlib
import re

import seatcalc
from seatcalc import census, core, distributions, engine, paradoxes, signposts

MODULES = (census, core, distributions, engine, paradoxes, signposts)
# the names the package exported while it listed them by hand; none may go
EARLIER = """
    ADAMS BUNDLED_YEARS BY_FAMILY BY_STATE Apportionment ApportionmentError DEAN
    DistributionMarks Family FamilyBias FamilyPartition FamilySplit HAMILTON
    HUNTINGTON_HILL ImmunityReport InfeasibleTarget JEFFERSON LogMoments LogNormal
    MethodSpec ParadoxReport PopulationDistribution PowerLaw QuotaEntry QuotaTable
    SignpostRule StateProfile TargetUnachievable Uniform WEBSTER apportion_at_divisor
    apportion_for_house_size as_multiple_solution_report breakpoints bundled_census
    bundled_census_path check_new_states compute_quotas expected_family_bias
    family_of_families_fixture family_splits log_histogram log_moments
    monte_carlo_bias partition_families piecewise_apportionments power_law
    power_law_mark powerlaw_loglik_scan read_census_csv round_quota sample_states
    scan_alabama signpost_table unbiased_mark verify_alabama_immunity
""".split()
ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_the_package_exports_each_module_list_once():
    # in module order, and with no name in two lists: a star import would
    # let the later module's object shadow the earlier one silently
    assert seatcalc.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(seatcalc.__all__)) == len(seatcalc.__all__)


def test_the_package_keeps_every_earlier_name_and_adds_the_dropped_ones():
    assert len(EARLIER) == 56
    assert set(EARLIER) <= set(seatcalc.__all__)
    assert set(seatcalc.__all__) - set(EARLIER) == {
        "ALABAMA", "NEW_STATES", "MULTIPLE_SOLUTION", "total_population", "house_divisor",
        "positional_split"}


def test_every_public_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(seatcalc, name) is getattr(module, name), (module.__name__, name)


def test_a_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from seatcalc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(seatcalc.__all__)
    assert all(namespace[name] is getattr(seatcalc, name) for name in namespace)


def test_every_source_file_parses_on_the_oldest_supported_python():
    # the grammar of the oldest Python that pyproject.toml admits, checked
    # on whichever Python runs the tests
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    oldest = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups()
    paths = [path for folder in ("src", "tests", "perfbench", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=tuple(map(int, oldest)))

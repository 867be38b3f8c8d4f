"""Three apportionment paradoxes, reproduced mechanically.

The Alabama paradox: a state loses a seat while the house grows.
Divisor methods applied per state are immune, but rounding family
quotas with a curved rule (Huntington-Hill here) reintroduces it.
The demo also shows the multiple-solution paradox (two seat vectors
for one house size), the New States paradox (adding a state at fixed
divisor costs an incumbent a seat), and why iterating family rounding
into families-of-families does not fix anything.
"""

from seatcalc import (
    BY_FAMILY,
    BY_STATE,
    HUNTINGTON_HILL,
    WEBSTER,
    MethodSpec,
    StateProfile,
    apportion_at_divisor,
    apportion_for_house_size,
    check_new_states,
    family_of_families_fixture,
    scan_alabama,
)


def main():
    hh_family = MethodSpec(HUNTINGTON_HILL, BY_FAMILY)
    webster_family = MethodSpec(WEBSTER, BY_FAMILY)

    print("1. Alabama paradox under family-rounded Huntington-Hill")
    states = tuple(StateProfile(f"state{i+1}", p)
                   for i, p in enumerate((0.999, 1.43, 999.0)))
    d_lo, d_hi = 999.0 / 1001.0, 1.0
    for d in (d_hi, d_lo):
        app = apportion_at_divisor(states, d, hh_family)
        seats = ", ".join(f"{n}={s}" for n, s in app.seats.items())
        print(f"   D = {d:.6f}: {seats}  (total {app.total_seats})")
    for report in scan_alabama(states, hh_family, d_lo, d_hi):
        print("   " + report.describe().replace("\n", "\n   "))
    clean = scan_alabama(states, webster_family, d_lo, d_hi)
    print(f"   same sweep under family Webster: "
          f"{'no violations' if not clean else 'violations!'}")

    print("\n2. multiple solutions at one house size")
    states = tuple(StateProfile(f"state{i+1}", p)
                   for i, p in enumerate((0.999, 1.43, 62.4375)))
    for i, app in enumerate(apportion_for_house_size(states, 65, hh_family), 1):
        lo, hi = app.d_interval
        seats = ", ".join(f"{n}={s}" for n, s in app.seats.items())
        print(f"   solution {i}: {seats} on divisors ({lo:.5f}, {hi:.5f}]")

    print("\n3. New States paradox at fixed divisor")
    incumbents = (StateProfile("state1", 2.6), StateProfile("state2", 5.3))
    added = StateProfile("added", 2.7)
    report = check_new_states(incumbents, webster_family, 1.0, added)
    print("   " + report.describe().replace("\n", "\n   "))
    state_mode = check_new_states(incumbents, MethodSpec(WEBSTER, BY_STATE),
                                  1.0, added)
    print(f"   statewise Webster on the same insertion: "
          f"{'unaffected' if state_mode is None else 'affected!'}")

    print("\n4. iterating the fix breaks it again")
    fof = family_of_families_fixture()
    print("   rounding family quotas is Alabama-immune, but grouping")
    print("   families into families-of-families and rounding those:")
    print("   " + fof.describe().replace("\n", "\n   "))


if __name__ == "__main__":
    main()

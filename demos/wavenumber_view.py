"""Compare the wavenumber footprint of a clean plate and a defected one.

The scattered field of the inclusions spreads energy over extra wavenumber
directions, but the occupied fraction of the 2D-DFT plane stays tiny — the
measured number is an estimate of the minimal sampling rate that still
captures the field.
"""

from wavesaliency.config import bundled_config_path, load_scenario, simulate_scenario
from wavesaliency.spectrum import dft2_magnitude, occupied_fraction


def last_snapshot(name):
    cube = simulate_scenario(load_scenario(bundled_config_path(name)))
    return cube.slice_at(cube.t_len - 1)


def main():
    for name in ("pristine_ci", "bench1_ci"):
        snap = last_snapshot(name)
        spec = dft2_magnitude(snap)
        print(f"{name}: final snapshot {snap.shape[0]}x{snap.shape[1]}")
        for floor_db in (-10.0, -20.0, -40.0):
            frac = occupied_fraction(spec, floor_db)
            print(f"  occupied fraction at {floor_db:6.1f} dB: {frac:.4f} "
                  f"(sampling could drop to ~{frac:.1%} of the nodes)")
        print()


if __name__ == "__main__":
    main()

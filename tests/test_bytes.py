"""The bytes of the small-draw routes, pinned as SHA-256 digests at seeds 1-3.

Each digest hashes the float64 bytes of every array a route returns, over a
few draws with the shapes and laws of perfbench's cpp-small-draws, or the
restricted events of a 2,000-jump d = 2 field on each path form.  A change to
the draw order or to the arithmetic of these routes changes a digest.
"""

import hashlib

import numpy as np
import pytest

from levysheet import jumpsim, stationary
from levysheet.exponent import Categorical, TwoPoint, cpp_from_atoms
from levysheet.paths import LinearPath

DRAWS = 25
PM1 = TwoPoint(1.0)
SHEET_DIST = Categorical([[1.0], [-0.5], [2.0]], [0.5, 0.25, 0.25])
STAT = stationary.StationaryLaw(cpp_from_atoms([(1.0, 1.0), (-0.5, 0.5)]), a=1.0, b=0.8, c=1.0)
LINE = LinearPath(0.0, 1.0, 1.0, 1.0, 0.0, 1.0)
FIELD_JUMPS = 2000


def cpp_path(rng):
    for _ in range(DRAWS):
        y = jumpsim.simulate_cpp_path(2.0, PM1, 0.0, 1.0, rng)
        yield from (y.times, y.increments, y.initial)


def rearranged(rng):
    for _ in range(DRAWS):
        y_prime, z = jumpsim.rearranged_difference(jumpsim.simulate_cpp_path(2.0, PM1, 0.0, 1.0, rng), rng)
        yield from (y_prime.times, y_prime.increments, z.times, z.increments, z.values([0.3, 0.7, 1.0]))


def sheet(rng):
    for _ in range(DRAWS):
        field = jumpsim.simulate_cpp_sheet(4.0, SHEET_DIST, jumpsim.RectRegion(1.0, 1.0), rng)
        events = jumpsim.restrict_to_path(field, LINE)
        yield from (field.locations, field.jumps, events.times, events.increments,
                    events.values([0.2, 0.5]))


def stationary_draws(rng):
    for _ in range(DRAWS):
        yield stationary.simulate_stationary(STAT, [0.0, 0.5, 1.0], rng).values


def bridge(rng):
    for _ in range(DRAWS):
        draw = jumpsim.bridge_experiment(1000, PM1, 1.0, [0.5, 1.0], rng)
        yield from (draw.values, draw.centered_original, draw.centered_rearranged)


def walk(rng):
    for _ in range(DRAWS):
        yield jumpsim.random_walk_bridge(1000, 1.0, PM1, rng, grid=[0.3, 0.6, 1.0]).values


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


ROUTES = {"cpp_path": cpp_path, "rearranged": rearranged, "sheet": sheet,
          "stationary": stationary_draws, "bridge": bridge, "walk": walk}

DIGESTS = {
    ("bridge", 1): "d075369cf4e291e84cb72a1259664022e7272387d86d9c9d9824ab638f3aa0e6",
    ("bridge", 2): "47d60ba8dd9894c76fe88947dadc49cc0233f051b49d99822fe9474bfca07bf2",
    ("bridge", 3): "7c5a53aa437bcf126b12ed77164a0c9eaf26314b53427450ac55377b3f3b60a3",
    ("cpp_path", 1): "f40f42df33ea5a8066b8d7674e2a010974f176175aaae7be3f80106bea2b7a06",
    ("cpp_path", 2): "1fe3ed834f1e73f979bb373af946b752c80360bc3f22d195b83edab2b6bbc65f",
    ("cpp_path", 3): "878bdc4416fdc0c90fe99c402758f33f1676c5b8d8ab6a7cdfc8c9c81b040189",
    ("rearranged", 1): "ad44dab31ffb48e9c476c6c6cc8b2c887065de38d71ae0f9131b6960dae505e2",
    ("rearranged", 2): "42607bce818e01b4b81a09ef3d09f835b6ad10a0df5586d69cb252abe39ed201",
    ("rearranged", 3): "24cb6e9ddf4e91f9e97d0b2be76ce916efaa2f4dceb206a4114581e0c57f8756",
    ("sheet", 1): "75890b0ea87336238ad8642cacb16f8623a12331bf738c51f5298fbf5fb7201f",
    ("sheet", 2): "0f3fd4898584d14381e92e9b59ac7bbeb15a78b8651493a1b18ce9163119f853",
    ("sheet", 3): "f87266e7863f235cc0eaa7c54809e3175bf7b62aaa2add55545846637c51b306",
    ("stationary", 1): "cbb6c21ff10e9a88ec3be46b92091b59ae4949f0ff5b6ca744045e7e02cdb2c7",
    ("stationary", 2): "2b159a84d98ea5483dd676b2bba864684ffa360a82adaa65f3984f315193eedc",
    ("stationary", 3): "fecac60a3d0d6973dd08c6637ed715dd1c94e1b2facb0046082a6bfcd9165808",
    ("walk", 1): "214dd5b8bf5ca02db5de8034ef69ba9a4e09dffa579d9538a901be675ec22744",
    ("walk", 2): "5e15528fd1951b11f1c082fc4db2d8b89aa6b13074771376adc24fc1664564cd",
    ("walk", 3): "45ac6d413a1802f746f2c6fcfa4212596a0ded5be00470f12f767989537978db",
}

FIELD_DIGESTS = {
    ("linear", 1): "b0713e1dda506dcc150575d2549a56622ed357c44c93ce34346376ad440fe1ce",
    ("linear", 2): "35db16f76beb462b6b4ed14ec159780b3e34f6744c3e9e89524ec685c20091c6",
    ("linear", 3): "e195273d353647cbae7c57e0ea42cb83d9edeb906ccd31800675908de3d396dc",
    ("exponential", 1): "5b2c061790f1489901ca5b91be6a26c2923bd81f0161341aa76f183f9d3a2307",
    ("exponential", 2): "ecbcdb5f739c9259e713089d0a52d152a6c31bd59751d5e58df47a497dd325d8",
    ("exponential", 3): "1f08ef71381f2a6976fb1598cf47a5636b03248e714dd6b58e6f2d96afb39390",
    ("corner", 1): "fe88ae9668d3a75bc8f68e502cf3e9f6d0df9bf390a7b5e08e0cb7a699d658da",
    ("corner", 2): "ff67b28b8e1e41d03c8eaf019f3e8add0547dad1a1cc3e5e55b1be0678c2d716",
    ("corner", 3): "f85d8d89cbcca31c78a7acc7e4e279845b3cec09bdd8d5f2adf0191f13dbcf40",
    ("horizontal", 1): "eab19a4d7a42f7efeb48800848725df156aba41e644cd052be59cc953a56e356",
    ("horizontal", 2): "05ab25560e67240ae090320daa8d2ef0d8443aac34fb232b9499d9cac295aa5b",
    ("horizontal", 3): "e8968e32d79308eb6f19856810f05bbce23f411a1b28885622fbbe0f7ecabded",
    ("vertical", 1): "02b40240354c806d6adfd3ea355e4664370110d7b6b2627fc82fd5cc655b95d7",
    ("vertical", 2): "ebe9058e7618e80ee354361429658bb24782029263b1fc52cb0f6dd8b36e09ce",
    ("vertical", 3): "3a33a59bf8e69802423ed8f4262298d29eb2e599026803c3042f66fbb0eeb3cd",
    ("tabulated", 1): "a1047052c1ead35ad6208a5bedb475234448b7b4fbf4e65c79e9b40c384e118f",
    ("tabulated", 2): "698cc3261857c90287109b678ed48f0f86238579a35cb325283f400f54f32f11",
    ("tabulated", 3): "c707991cb2503990ef97b6d5b6de8e776de1d8693d86cda0043d06e20797eab5",
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_small_draws_keep_their_bytes(route, seed):
    assert _digest(ROUTES[route](np.random.default_rng(seed))) == DIGESTS[route, seed]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("form", ["linear", "exponential", "corner", "horizontal", "vertical", "tabulated"])
def test_restricted_fields_keep_their_bytes(form, seed, six_forms):
    path, rng = six_forms[form], np.random.default_rng(seed)
    region = jumpsim.path_region(path)
    locs = np.column_stack([(1.0 - rng.random(FIELD_JUMPS)) * region.x_max,
                            (1.0 - rng.random(FIELD_JUMPS)) * region.y_max])
    events = jumpsim.restrict_to_path(jumpsim.JumpField(region, locs, rng.normal(size=(FIELD_JUMPS, 2))), path)
    assert _digest([events.times, events.increments, events.initial]) == FIELD_DIGESTS[form, seed]

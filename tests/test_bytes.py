"""The bytes of the small-draw routes and of the closed forms, pinned as SHA-256 digests.

Each digest hashes the float64 bytes of every array a route returns, over a
few draws with the shapes and laws of perfbench's cpp-small-draws at seeds
1-3, or the restricted events of a 2,000-jump d = 2 field on each path form
(a 24,000-jump one on a line and on an exponential path, whose more than
20,000 events take `EventPath`'s bucketed order).
The closed forms (`joint_cf`, `increment_cf`, `eval_psi`,
`stationary_increment_cf`, `distinguish_ou` and tabulated `classify`) are
hashed per law over the six path forms, at n = 1, 2, 5, 50 and 200 times for
`joint_cf`.  A change to the draw order or to the arithmetic of these routes
changes a digest.
"""

import hashlib

import numpy as np
import pytest

from levysheet import fdd, jumpsim, stationary
from levysheet.exponent import (Categorical, LevyTriplet, ScaledJumps, TwoPoint, UniformJumps,
                                brownian, cpp, cpp_from_atoms, eval_psi, is_symmetric, pure_drift)
from levysheet.paths import LinearPath, PathTag, TabulatedPath, VThenHPath, classify

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


LONG_FIELD_JUMPS = 24_000
LONG_FIELD_DIGESTS = {  # seed 1: 27,605 events on the line, 23,607 on the exponential path
    "linear": "96b05c61976fc0fa105170d846142f8cad97845debfcc49cf5f9f9c1e82121fc",
    "exponential": "a076a8f4b809938f4491d45f59530d56225505f1366824eb33febaf761f65f62",
}


def _restricted(path, n_jumps, rng):
    region = jumpsim.path_region(path)
    locs = np.column_stack([(1.0 - rng.random(n_jumps)) * region.x_max,
                            (1.0 - rng.random(n_jumps)) * region.y_max])
    return jumpsim.restrict_to_path(jumpsim.JumpField(region, locs, rng.normal(size=(n_jumps, 2))), path)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("form", ["linear", "exponential", "corner", "horizontal", "vertical", "tabulated"])
def test_restricted_fields_keep_their_bytes(form, seed, six_forms):
    events = _restricted(six_forms[form], FIELD_JUMPS, np.random.default_rng(seed))
    assert _digest([events.times, events.increments, events.initial]) == FIELD_DIGESTS[form, seed]


@pytest.mark.parametrize("form", sorted(LONG_FIELD_DIGESTS))
def test_long_restricted_fields_keep_their_bytes(form, six_forms):
    events = _restricted(six_forms[form], LONG_FIELD_JUMPS, np.random.default_rng(1))
    assert events.times.size >= 20_000
    assert _digest([events.times, events.increments, events.initial]) == LONG_FIELD_DIGESTS[form]


# --- closed forms ---------------------------------------------------------

CLOSED_LAWS = {
    "brownian1": brownian(1),
    "brownian2": brownian(2),
    "atoms1": cpp_from_atoms([(1.0, 1.0), (-0.5, 0.5), (1.5, 0.25)], drift=0.25),
    "atoms2": cpp_from_atoms([([1.0, 0.5], 0.7), ([-0.25, 1.5], 1.2)], drift=[0.1, -0.3]),
    "mixed": LevyTriplet([0.3, -0.2], [[1.0, 0.3], [0.3, 0.5]],
                         ScaledJumps(1.5, Categorical([[0.5, -1.0], [2.0, 0.25]], [0.4, 0.6]))),
    "uniform": cpp(2.0, UniformJumps(0.8), drift=0.1),
    "symmetric2": cpp(1.5, TwoPoint([0.5, -1.0])),
    "drift2": pure_drift([0.5, -0.25]),
    "signed_zero_gaussian": LevyTriplet([0.3], [[-0.0]]),  # A = -0: psi's zero terms keep their signs
}
CLOSED_NS = (1, 2, 5, 50, 200)
FORMS = ("linear", "exponential", "corner", "horizontal", "vertical", "tabulated")


def _complex_digest(values) -> str:
    vals = np.asarray(values, dtype=complex)
    return _digest([vals.real, vals.imag])


def _probe_times(rng, path, n):
    return np.sort(path.t_lo + (path.t_hi - path.t_lo) * rng.random(n))


def joint_cfs(triplet, forms, rng):
    for form in FORMS:
        path = forms[form]
        for n in CLOSED_NS:
            times = _probe_times(rng, path, n)
            zs = rng.normal(0.0, 1.0 / np.sqrt(n), size=(n, triplet.dim))
            yield fdd.joint_cf(triplet, path, times, zs)
            zs[n // 2] = 0.0  # one zero probe
            yield fdd.joint_cf(triplet, path, times, zs)
        yield fdd.joint_cf(triplet, path, [path.t_lo, path.t_hi], np.zeros((2, triplet.dim)))


def increment_cfs(triplet, forms, rng):
    for form in FORMS:
        path = forms[form]
        for _ in range(4):
            s, t = _probe_times(rng, path, 2)
            z = rng.normal(size=triplet.dim)
            yield fdd.increment_cf(triplet, path, s, t, z[0] if triplet.dim == 1 else z)


def psi_values(triplet, rng):
    for _ in range(8):
        z = rng.normal(0.0, 2.0, size=triplet.dim)
        yield eval_psi(triplet, z[0] if triplet.dim == 1 else z)
    yield eval_psi(triplet, np.zeros(triplet.dim))
    rows = rng.normal(0.0, 2.0, size=(17, triplet.dim))
    rows[5] = 0.0
    yield from eval_psi(triplet, rows)


def stationary_cfs(triplet, forms, rng):
    symmetric = is_symmetric(triplet)
    for form in FORMS[:-1]:
        cls = classify(forms[form])
        if not symmetric and cls.tag not in (PathTag.HORIZONTAL, PathTag.VERTICAL, PathTag.EXPONENTIAL):
            continue
        for u in np.linspace(0.0, cls.max_lag, 5):
            z = rng.normal(size=triplet.dim)
            yield fdd.stationary_increment_cf(triplet, cls, float(u), z)


CLOSED_ROUTES = {
    "joint_cf": lambda law, forms, rng: _complex_digest(list(joint_cfs(law, forms, rng))),
    "increment_cf": lambda law, forms, rng: _complex_digest(list(increment_cfs(law, forms, rng))),
    "eval_psi": lambda law, forms, rng: _complex_digest(list(psi_values(law, rng))),
    "stationary_increment_cf": lambda law, forms, rng: _complex_digest(list(stationary_cfs(law, forms, rng))),
    "distinguish_ou": lambda law, forms, rng: _digest(
        [[r.max_gap, *((r.witness.t, r.witness.gap, *r.witness.z) if r.witness else (np.nan,))]
         for r in (stationary.distinguish_ou(law, c) for c in (0.5, 1.0, 1.7))]),
}


def _tabulations():
    """64-knot tabulations of lines, corners and exponentials, and perturbed curves."""
    ts = np.linspace(0.1, 0.9, 64)
    knots = np.sort(np.append(np.linspace(0.0, 1.0, 63), 0.4))
    corner = VThenHPath(0.4, 1.0, 2.0, 3.0, 1.5, 0.0, 1.0)
    bent = VThenHPath(0.4, 1.0, 2.0, 3.0, 2.0, 0.0, 1.0)  # a c != b d
    yield TabulatedPath(ts, 0.25 + 1.3 * ts, 2.0 - 1.1 * ts)
    yield TabulatedPath(ts, 0.25 + 1.3 * ts, np.full(64, 1.5))
    yield TabulatedPath(ts, np.full(64, 0.75), 2.0 - 1.1 * ts)
    yield TabulatedPath(knots, corner.x(knots), corner.y(knots))
    yield TabulatedPath(knots, bent.x(knots), bent.y(knots))
    yield TabulatedPath(ts, 0.7 * np.exp(1.3 * ts), 1.1 * np.exp(-1.3 * ts))
    yield TabulatedPath(ts, 0.7 * np.exp(1.3 * ts), 1.1 * np.exp(-0.8 * ts))
    yield TabulatedPath(ts, ts ** 1.7, 1.0 - ts / 2.0)
    rng = np.random.default_rng(5)
    yield TabulatedPath(ts, ts + np.cumsum(np.abs(rng.normal(0.0, 0.01, size=64))), 1.05 - ts)
    yield TabulatedPath(ts, 0.25 + 1.3 * ts + 1e-5 * np.sin(40 * ts), 2.0 - 1.1 * ts)


def _class_bytes(cls):
    return [float(len(cls.tag.value)), *map(float, cls.tag.value.encode()), cls.max_lag,
            *(cls.params[k] for k in sorted(cls.params))]


CLOSED_DIGESTS = {
    ("distinguish_ou", "atoms1"): "3f2ddc289f5db872a326853e3fb963d76203bea59b51abe0882ee0ece191b9c4",
    ("distinguish_ou", "atoms2"): "2d2eefb1987dd6e4cdfb3baa8266c8d5d21c2c5ef00e507037b5260ddb4cda0d",
    ("distinguish_ou", "brownian1"): "0d774828cbf81075fc7a542259991815bf43b481b41e48bbb28c946a9f025c94",
    ("distinguish_ou", "brownian2"): "0d774828cbf81075fc7a542259991815bf43b481b41e48bbb28c946a9f025c94",
    ("distinguish_ou", "drift2"): "12b27661893907ee7c9b82d8bbcc3e4a6bcb09dce65811106ece223a84a87ae9",
    ("distinguish_ou", "mixed"): "91b01aac4b6832a23a083e10b5fa533b162d821eada769ffc2b4c050cdc85254",
    ("distinguish_ou", "signed_zero_gaussian"): "0c2c2c13051ed845578473fad2d47a1fa1f1788018e3d2099a38dc52976db47e",
    ("distinguish_ou", "symmetric2"): "c003ea3f16826b2b19344fee5c83e2575fb2f642698871462c051afd059a13e1",
    ("distinguish_ou", "uniform"): "b87c1ad37175a0d5e334784ab2c81a4e4033ea2450935ecb1e156483270974a6",
    ("eval_psi", "atoms1"): "dc4713ab0eae9554a2343074ae2af29d74cee51b5f8ba68606718094fb7a1a56",
    ("eval_psi", "atoms2"): "9b00f1328f1f0819ea0245474a4e23cf92c5af0ee52bbf4ab49f09b3796e9533",
    ("eval_psi", "brownian1"): "1b2a6b5f5ff3005c3c2daea1175ff1dc4ca3b6ded62d4881ebf01feb4d9e2b43",
    ("eval_psi", "brownian2"): "23327b5361cf81c331b3848b0b578260e663bed591594703135383c0f543f85b",
    ("eval_psi", "drift2"): "05b4859abeeb521a258160d15146c5996de4bd71080754f6190def45d1cb7f80",
    ("eval_psi", "mixed"): "5112a2ca1b8b0278ff203bd6c110bf43ed2e2cbba4598105d9d410dbac4eba08",
    ("eval_psi", "signed_zero_gaussian"): "52763cc06f14d608eff2ac11a6212d31d09fa4e91f39b4a0309388c712afe188",
    ("eval_psi", "symmetric2"): "2dd79ac63221e33b1f6561eb79e5f75c68c20f970cf23bdf10174882ac2e3e75",
    ("eval_psi", "uniform"): "7b0831dd4c678786fe0a1c8a16bfc7e421b827a41621a674c858e085c06a549c",
    ("increment_cf", "atoms1"): "3f7ef56943daac4a1fe5dd861f3bf5520709d11f44b823ae191cf5f617bdb34e",
    ("increment_cf", "atoms2"): "35b17874284840809d4efa438453ada8548b07ae5f92e239d21ea4696fd8e984",
    ("increment_cf", "brownian1"): "2155ceb35e45a96c36b5a075b3af8dfeada1cb6987690ed0bf6d4fc0555ad234",
    ("increment_cf", "brownian2"): "901d9b66bc0b55b40d79d2c2734f1ed4357d09cb50f3b0f27f1142a558ddefd9",
    ("increment_cf", "drift2"): "23820367727d1516ea673f92caa808d8626fe76b6bcdc2fb98f662c32d9d5478",
    ("increment_cf", "mixed"): "48bad24bc45db376352ccb2df17a45ff74af67f2027963f82ac3a43084da3198",
    ("increment_cf", "signed_zero_gaussian"): "0c362b7fb240cd566591642443f12d4e8ec91969e37111908e9a57d9c315b808",
    ("increment_cf", "symmetric2"): "540c973a42ef45d60567a17fb8131db511cc471fb3580287a7ba2966662a606b",
    ("increment_cf", "uniform"): "57acdecee00bf90ca23b74161c86226560483893089a8fe78af31777b6009996",
    ("joint_cf", "atoms1"): "a14569e81d65f11cd139591ad4887e1cebe966c27d57d0ff4561401d7f30d47b",
    ("joint_cf", "atoms2"): "e6e54f74eef1debd408390036419dd257cd18a2a1b40d9e9fdd899fba9b32ec9",
    ("joint_cf", "brownian1"): "06fc9d8e8a6754f6ac27bcccc9bca27aae14b9418c9e07b6bf21c3cb1c974534",
    ("joint_cf", "brownian2"): "0ad6b5582d03053bb808d4c58f7307b1ecca6feba15a4542ceaac7c7a53145eb",
    ("joint_cf", "drift2"): "5c18fcb28263560d6f59aeba0ba2ebb7a5e768a7eb2f5bba90b66ad7ffa68bf0",
    ("joint_cf", "mixed"): "36049a44d6148de48cd242feb7eacf9cb717b94a4c2a4b8ab9238f848d35de5e",
    ("joint_cf", "signed_zero_gaussian"): "67a1dc88a6822b1bcdf4345a616a93268d5c33325004008b3b19070b8a8c80b8",
    ("joint_cf", "symmetric2"): "761acbcfe8bbe4ce43af1ea0c38e1fc3baf9006869e61d02e4a0951b6822590b",
    ("joint_cf", "uniform"): "c12267cb75bdbbf22890a39a8cb1735ad8f473e8651f7d4cbb124b71df6e2362",
    ("stationary_increment_cf", "atoms1"): "9796de75e6185bd65389f42363f14372651d2b4946b5691db8334277d177865e",
    ("stationary_increment_cf", "atoms2"): "0254cd447168f18d8ac5edae8ea577b1a07ba635ed5233a1067d1bb7d632b246",
    ("stationary_increment_cf", "brownian1"): "f597d897b3148d2ae798015e4c71ec4b3596cfbc92db778114d2600cd741b7c5",
    ("stationary_increment_cf", "brownian2"): "636a4bcb16308e291dd9392fe56b8058a43248c987015fe98cadcc5b31fc17cd",
    ("stationary_increment_cf", "drift2"): "079cd64c51160cedc0d4d0ee743e50d114f6f8351381e2394a8e4d18be9a818d",
    ("stationary_increment_cf", "mixed"): "1ff3a8ca526b884e2f066cae2fea4b89d57e95dc48150d32d5a2297815f6f09e",
    ("stationary_increment_cf", "signed_zero_gaussian"): "2915e3756fbcfd4f9a3390fe73291ed4b7ce5a46d45513cd61f985bf4b17b8b9",
    ("stationary_increment_cf", "symmetric2"): "163b090dcd80787e54fbe70d4db3b67bdd9de1e4bcc47f73045e88987384ec8f",
    ("stationary_increment_cf", "uniform"): "956c9db8138dc3afbed553b0534236934a0c7545563026cc3eaf766c4dbdd5ba",
}
CLASSIFY_DIGEST = "4c981a83cda4b6768c93c60b3d8cf046a532d866221ba32d7f76e83c908b3662"


@pytest.mark.parametrize("law", sorted(CLOSED_LAWS))
@pytest.mark.parametrize("route", sorted(CLOSED_ROUTES))
def test_closed_forms_keep_their_bytes(route, law, six_forms):
    got = CLOSED_ROUTES[route](CLOSED_LAWS[law], six_forms, np.random.default_rng(7))
    assert got == CLOSED_DIGESTS[route, law]


def test_tabulated_classes_keep_their_bytes():
    assert _digest(_class_bytes(classify(path)) for path in _tabulations()) == CLASSIFY_DIGEST

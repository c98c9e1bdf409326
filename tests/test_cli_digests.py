"""The CLI's output bytes over a fixed argv table, pinned as SHA-256 digests.

Each case runs `cli.main` in-process and hashes its stdout: `classify`, `cf`,
`increment-cf` and `equivalent` on every path JSON form (the legacy
`horizontal`/`vertical` specs and `tabulated` included), `simulate` on a grid
(d = 1 and 2, csv and json) and with `--events`, and the experiments
`bridge`, `rwbridge`, `ou` and `zerocross` at small n.  A seeded case is
pinned at seeds 1-3, an unseeded one once.  Regenerate the table with

    PYTHONPATH=src python tests/test_cli_digests.py

A change that moves a digest on purpose updates it in the same commit and
names each changed case in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json

import pytest

from levysheet.cli import main
from levysheet.paths import path_from_dict, path_to_dict, scaled

SEEDS = (1, 2, 3)

PATHS = {
    "linear": {"form": "linear", "a": 0.25, "b": 1.0, "c": 2.0, "d": 1.5, "t_lo": 0.0, "t_hi": 1.0},
    "bridge": {"form": "linear", "a": 0.0, "b": 1.0, "c": 1.0, "d": 1.0, "t_lo": 0.0, "t_hi": 1.0},
    "exponential": {"form": "exponential", "a": 0.7, "b": 1.1, "c": 1.3, "t_lo": 0.0, "t_hi": 1.0},
    "v_then_h": {"form": "v_then_h", "s_star": 0.5, "a": 1.0, "b": 2.0, "c": 4.0, "d": 2.0,
                 "t_lo": 0.0, "t_hi": 1.0},
    "horizontal": {"form": "horizontal", "y": 1.5, "x_intercept": 0.5, "x_slope": 2.0,
                   "t_lo": 0.0, "t_hi": 1.0},
    "vertical": {"form": "vertical", "x": 2.0, "y_intercept": 3.0, "y_slope": 1.0,
                 "t_lo": 0.0, "t_hi": 1.0},
    "tabulated": {"form": "tabulated", "knots": [[0.0, 0.1, 1.1], [0.2, 0.3, 0.9], [0.4, 0.3, 0.7],
                                                 [0.6, 0.5, 0.7], [0.8, 0.7, 0.5], [1.0, 0.9, 0.3]]},
}
FORMS = [name for name in PATHS if name != "bridge"]


def _atoms(points, mass):
    return {"kind": "discrete", "atoms": [{"x": x, "mass": mass} for x in points]}


TRIPLETS = {
    "mixed1": {"gamma": [0.4], "gaussian": [[0.7]],
               "jumps": {"kind": "scaled", "rate": 3.0,
                         "dist": {"name": "categorical",
                                  "params": {"points": [[1.0], [-0.5]], "probs": [0.7, 0.3]}}}},
    "mixed2": {"gamma": [0.4, -0.3], "gaussian": [[0.7, 0.2], [0.2, 0.5]],
               "jumps": {"kind": "scaled", "rate": 3.0,
                         "dist": {"name": "categorical",
                                  "params": {"points": [[1.0, 0.5], [-0.5, 0.25]], "probs": [0.7, 0.3]}}}},
    "symmetric1": {"gamma": [0.0], "gaussian": [[0.5]], "jumps": _atoms([[1.0], [-1.0]], 1.5)},
    "cpp1": {"gamma": [1.0], "gaussian": [[0.0]], "jumps": _atoms([[1.0], [-0.5]], 2.0)},
    "cpp2": {"gamma": [0.0, 0.0], "gaussian": [[0.0, 0.0], [0.0, 0.0]],
             "jumps": _atoms([[1.0, 0.5], [-0.5, 2.0]], 2.0)},
}


def _cases():
    """name -> (argv, whose {name} placeholders name the spec files, and whether it takes --seed)."""
    cases = {}
    for form in FORMS:
        cases[f"classify/{form}"] = (["classify", "--path", f"{{{form}}}"], False)
        cases[f"cf/{form}"] = (["cf", "--triplet", "{mixed2}", "--path", f"{{{form}}}",
                                "--times", "0.1", "0.5", "0.9", "--z", "0.3", "-1", "2", "0.5", "-0.7", "1.1"],
                               False)
        cases[f"increment-cf/{form}"] = (["increment-cf", "--triplet", "{symmetric1}", "--path", f"{{{form}}}",
                                          "--s", "0.2", "--t", "0.7", "--z", "1.3"], False)
        cases[f"equivalent/{form}"] = (["equivalent", "--path", f"{{{form}}}", "--path2", f"{{{form}-scaled}}"],
                                       False)
        cases[f"simulate/{form}/d1/csv"] = (["simulate", "--triplet", "{mixed1}", "--path", f"{{{form}}}",
                                             "--grid", "0", "1", "9", "--format", "csv"], True)
        cases[f"simulate/{form}/d2/json"] = (["simulate", "--triplet", "{mixed2}", "--path", f"{{{form}}}",
                                              "--grid", "0", "1", "9", "--format", "json"], True)
        law, fmt = ("cpp1", "csv") if form in ("linear", "v_then_h", "vertical") else ("cpp2", "json")
        cases[f"simulate-events/{form}/{fmt}"] = (["simulate", "--events", "--triplet", f"{{{law}}}",
                                                   "--path", f"{{{form}}}", "--format", fmt], True)
    cases["equivalent/linear-exponential"] = (["equivalent", "--path", "{linear}", "--path2", "{exponential}"],
                                              False)
    cases["simulate/bridge/d1/json"] = (["simulate", "--triplet", "{mixed1}", "--path", "{bridge}",
                                         "--grid", "0", "1", "11", "--format", "json"], True)
    cases["simulate/bridge/d2/csv"] = (["simulate", "--triplet", "{mixed2}", "--path", "{bridge}",
                                        "--grid", "0", "1", "11"], True)
    cases["experiment/bridge"] = (["experiment", "bridge", "--rate", "100", "--n", "200",
                                   "--grid", "0", "1", "11"], True)
    cases["experiment/rwbridge"] = (["experiment", "rwbridge", "--rate", "50", "--n", "200"], True)
    cases["experiment/ou"] = (["experiment", "ou", "--triplet", "{mixed1}", "--c", "1.5"], False)
    cases["experiment/zerocross"] = (["experiment", "zerocross", "--path", "{bridge}", "--z", "0.3",
                                      "--n", "200", "--grid-points", "50"], True)
    return cases


CASES = _cases()

DIGESTS = {
    'cf/exponential': (
        "1f384a4ad6d44c0d3b2ea085fb95b2828b06bd6b48ab2ece017c344b54923bfa",),
    'cf/horizontal': (
        "6679c18f711ccb4bac41b044192cc42b69dab60267a32fa839aa68218a396789",),
    'cf/linear': (
        "63d2ecca480d6d5316307e1304e5d3970ac08165465a9b5e1efcafd4de45af4b",),
    'cf/tabulated': (
        "4db289843e406d04a80c12aa7335120b96720a06ff30becb143a0f28cf79cd7a",),
    'cf/v_then_h': (
        "3a7a99302e7f5fe5ff2f87fbbf3c70fa6eb9f3c113cb9f819e92f2fb0a640b19",),
    'cf/vertical': (
        "9276f3fb80e3647904312b1d44395574d4a447abef0774c7a756bac0b3ae90e2",),
    'classify/exponential': (
        "52abf0f76ad0a0e4fbae95462b734b405ae8e3b9aacf5c31acd81682e729d406",),
    'classify/horizontal': (
        "59dd02811cab258e768347f0aa24398a14ae9703dec8d786075cb1c0397df444",),
    'classify/linear': (
        "411a542c41e3fc81fb261d46dabacba0e83d4232fa242baa14135fadc9e2c70a",),
    'classify/tabulated': (
        "5a5e9b7393e2838660bbbdd1dbee69a5a09a431927475b4efb2a62f4e60305c4",),
    'classify/v_then_h': (
        "1fc286df47dc452a4bec5c0fa15b9b410e1ade44733d48e912d06f5bf3b852c3",),
    'classify/vertical': (
        "9e6a86355868cf6e3a381a715b9a8daddf235ddf61de2be60c1d4700b59c12ce",),
    'equivalent/exponential': (
        "ed6d2e46a1df630b2cc91ca0aec34a1847396efa9f27c93684f7418a9247db22",),
    'equivalent/horizontal': (
        "ed6d2e46a1df630b2cc91ca0aec34a1847396efa9f27c93684f7418a9247db22",),
    'equivalent/linear': (
        "ed6d2e46a1df630b2cc91ca0aec34a1847396efa9f27c93684f7418a9247db22",),
    'equivalent/linear-exponential': (
        "85657a500b81ad17bbe9b6d4731df918e94a79f8e46e8c7eb500a185f03beb87",),
    'equivalent/tabulated': (
        "ed6d2e46a1df630b2cc91ca0aec34a1847396efa9f27c93684f7418a9247db22",),
    'equivalent/v_then_h': (
        "ed6d2e46a1df630b2cc91ca0aec34a1847396efa9f27c93684f7418a9247db22",),
    'equivalent/vertical': (
        "ed6d2e46a1df630b2cc91ca0aec34a1847396efa9f27c93684f7418a9247db22",),
    'experiment/bridge': (
        "5bb46110168ac0a9b889f5b98810494e52e9dcbbca4ba18ed60ad8f3a5ce7711",
        "f95918345bcb17be3fc718bbeeb121acc1c9849a1f74bd7afe1bdf6c177d9f8b",
        "c89ec2be4ea5092de20e1f77d712fd1b82ebb168886b3a02fd4e9b2cdd19a4d4",),
    'experiment/ou': (
        "716247232a72c32468ed622360ac97efd8b4c40f7b3f859eba1cc8b5e8b891a8",),
    'experiment/rwbridge': (
        "6a9fce252569e1e3fee97141d0e05ce91cdf713cc93a524e6fbe86de4843aa5b",
        "b0227935c26405d0cce676d667a94ba57878428f9396208be30588fd57585ddf",
        "249a996498a22d6423d06aabf839c43aef31d27ab4ce9722371135f64f85e323",),
    'experiment/zerocross': (
        "2c98c95b8a5d505ec5794506e775c5d274c504c2b7be9ddb7090863bf59f638f",
        "f3a69ca091394592d83aff653a7efa448ac70ae3494de899afd22a9b6fead919",
        "f04887a6d36ec680792d9e3b08f9de563cee4d8f81a29d0feab7c8e7cd6420e2",),
    'increment-cf/exponential': (
        "48de369f488e480ff07a6194681879380bdfd50bfaf9695f8c3c1a9cd88b7b0d",),
    'increment-cf/horizontal': (
        "8a8b4a64823001c979c67b42debfeebc821a809b535566d415c668307877fdd9",),
    'increment-cf/linear': (
        "3519484fedddfbd1c4a537c34c84968e7139f557802ac3f44c51ea42583e654c",),
    'increment-cf/tabulated': (
        "0f7e31ec119ee2ce2d4f3aeb20c6a3ead9e4c88fa59b014cbe1c0cc249615f5b",),
    'increment-cf/v_then_h': (
        "204b63a98ce2ebfa2c97fe802ead3e4c898dc4490055c1986be99af0189e084b",),
    'increment-cf/vertical': (
        "0002c61749483f7e0df2927a48b3d9634e689abfa6da3065da68f5065ba7aa4b",),
    'simulate-events/exponential/json': (
        "fdfce9b61e6079454ca549f2f6d725879ef47a2f2ed119478231d07757464e8c",
        "c35235c613fd24e4bebbb4407e40d2e0c6a92c3d6eb9b4cea4c2d5f75d033f21",
        "7d54554ec129c1c488b20107f3461a4b4f00af878532670487f1fe119670c667",),
    'simulate-events/horizontal/json': (
        "80ceb8e55394ff69466d1404feb7629709051ecc12fb433552f89bd8d3ddc694",
        "1bbf585465d574da23eccd07702d0c0072c95fc5ad434fdfdbe3620302e15240",
        "be2f1516c19a7ad891d516cd7384dbd7eff775c754c197a276c478289358a00c",),
    'simulate-events/linear/csv': (
        "bef2f4e220a3a4190c952c038fafa91ba127d5269a1a7a009b5d582bf9232ebe",
        "c6fdf87da48ff8e2a8c36cb7cf92e38e56abc927975105c3521ef4bdb4a26e1b",
        "9e8b0600b95e3b7dd3246bcefddb57c1346b7f3693d2791f96a8ff71822a0383",),
    'simulate-events/tabulated/json': (
        "49104cc96046ab8b93af8ad44de853fb042279bcec7eae35bf9298954726e761",
        "9932d3b3617c6a33afcd1cfee04196624c33e1c872de78e5c6b7f6163fd04819",
        "1993a5bff78a9162a5b6e214e572bf37df99d5146a955904bf29bb6c5f892033",),
    'simulate-events/v_then_h/csv': (
        "cb3084fb301741cb51289d78505354418b0a1ee88677c889056d9d969f0daf46",
        "5d8a1ea9c869aaba5ad21328e5dde7a7cec5e3a3fd18f350701c40dc5b8513d8",
        "21f15ac50b6d310993ea66e0575aa9da25c59de40bad0200ccc8137db326d200",),
    'simulate-events/vertical/csv': (
        "38a00c62e0a7902c7d4287ec6a36b11ad4726dc821e1252002167e310c7f1c7f",
        "bdea3f928d2fd00c9cdf9c2780dafbda73fba994f2f20ca6324fc6a091c0343d",
        "f56340b74b504ba344a105c35332386e3e153f8aff503953c358a28f9261b3f1",),
    'simulate/bridge/d1/json': (
        "cad979251adb38c95dfb99c4a69956ee8bd02109b37b7540ebd1484bb8a5dba5",
        "690cfc0bb75bd2816ee89ff1f7cfd0c4b9c3802d9bc4328810449cd7f5ff6fab",
        "b56ebc9f0ffe74ccc9edc20502b045c88d83d446c996a1b8e151bbb3e17b8e1e",),
    'simulate/bridge/d2/csv': (
        "80922353c4ff762bd5e005ab0a6bbd3fe9deca6cae9c44353c23ccca4cbcbfaa",
        "238631e1376335d969b81f6742a3792c9841a96a5de57c9bbdb4ee3bebf9675c",
        "30041ba3a528c9caf4ffec532fa0e7142d6475b6a207b1b3e460818784aae132",),
    'simulate/exponential/d1/csv': (
        "66e6c43634df5b19e622da23a25cd45614a061ab6b0ad63d4a2cbfde4d61b6c7",
        "b44fb5cdfdb3df664ad8202cad6f0cc97742490cc71ce8c67a8cc2799d1b7db5",
        "b7fb95efd9525da6edce76a63f08f8c285e0252eb668573974d87b1dad7f14ca",),
    'simulate/exponential/d2/json': (
        "b1f7336335e03dc4b063f2763d51da7545c72bdd999efd5844f321b8216f8bb9",
        "565fbffc7e4e4b0e1fbed2c8f11f8ad8d37472fd60c88c80b85152cecbb3048b",
        "abbb616d4aaabc751664872558184d40a89cedf97d99507591a959b9501b38b5",),
    'simulate/horizontal/d1/csv': (
        "611776ee93a88cb786a02b3e057893230206bcf121cf2e8397e9aae08891226b",
        "c78254d74e386f7697ef7c2d7ab2299dd11bf8c2ca212620d6b5a629a48632f7",
        "b01a2ea2af616b12e9dba24ab33f06fe4aa84a431e4654859a265297f8c4a66d",),
    'simulate/horizontal/d2/json': (
        "bbc2679d1dddb48d26847a3c172bbdd922f0e5a7cd73fe7a4fb27b75908a459e",
        "0f4007321ac449e879160124f5cbab7d897533096fa10b0e0fc2ee36c7e6f6e3",
        "4362d3ac7f8ee32dd0eeb77a0d0d2498934bea43c4b7687191a84587d36bdb29",),
    'simulate/linear/d1/csv': (
        "3c9811e0534b76dc80b7f9bd740caea0716db583ce3fd79d3b86888c0d89e4aa",
        "6f08fb2dd1c814b264f50a0d650e74de62a2294b0c5deb1c32a0aba62118b52f",
        "194a7ae42e31de277080f6c1da9fad638712a2c2356e0233a5a84e8e5b5490b1",),
    'simulate/linear/d2/json': (
        "f6630431204878bf31bc166a64bdbe280f7d6001d3cdd3484bb5b34536f144c5",
        "ce1d27a7bd219696d04baf8f1b5e38b94dd3d05b690b3391070b95b8ece7f5bd",
        "d452d4b840e8bbc048150753b1545437adf754ae738932861d723db9ea9810f3",),
    'simulate/tabulated/d1/csv': (
        "8ff507b2fd01354b525428b1fe9fdc5cd2af7a5d329376e89a7b1dac5bc15573",
        "b9469ca3910f3ecbc6246784f4749622b2ce4f0e9fb6b6eab6533a3c556a1cba",
        "b8352aa9eb305abf4f311ef562c9b06803ab67082e589c39dd9b7c9567e89b82",),
    'simulate/tabulated/d2/json': (
        "4e6e2f99b12e107a3df865b5871aeb669a2f355da63ae47b468147f2eaf76bca",
        "c3afc2e237e7b7317d03368183d782868b5ef7bfe1d572e34af0d6230096754e",
        "ff210ab417b55e73b3aac8325bcbaed7daadfe2520105cfc9e5042b1897f3839",),
    'simulate/v_then_h/d1/csv': (
        "0d59a2e2af1f189e23c9800acd277042026efcbab299a13a5f8bc580f0466c42",
        "fe20c6cb4516589445a70aa1c321ab00b1309998b93f6f00cb0814aaaa569979",
        "933674262b24b3d2784fafcf9e8cb5b9e28c5ac627d7d06598009c5bbeff3727",),
    'simulate/v_then_h/d2/json': (
        "a1e9d8cc1ad8b5a5af63e6a2df58277b192994c5903530b63911a83985fa55b2",
        "31413845d50015712b707122145561ec4bb1d393d18fac03681d5fa5f3a2e9dd",
        "88e78a92e850f47a2e4a7c7bd95aa7798ff8bbe4583f24ddaa0f9e89af84b225",),
    'simulate/vertical/d1/csv': (
        "7f8e3f0c06feef197549a1ed57c5accff5c6d30e1c7a61b95b32d0cf8286ed81",
        "e3c20d27630ead75bf80ed1de128c61b824cc1bfc960f6f06ebafbe808be540c",
        "9afc83ed9c6ab72eef6583963decbe16224d6ceda8fb6a9b52256e9549a1d551",),
    'simulate/vertical/d2/json': (
        "519bfd5d4432fc3c5ac75c49493533b154d64b50f1b934895ef2f3f2e300c854",
        "9e6929d2ede63dec7e65e1d14341b2439818c482a2c70d25f94a020c7babd0a1",
        "a8f157d18055265ddfd09ee1120b7a1fadbe68aff68ecee4a44e160b4f8f0b4b",),
}


def write_files(root) -> dict:
    """Write every path and triplet spec, and each form's scale-2.5 twin, as JSON; name -> file."""
    specs = {**PATHS, **TRIPLETS}
    specs.update({f"{form}-scaled": path_to_dict(scaled(path_from_dict(PATHS[form]), 2.5)) for form in FORMS})
    for name, spec in specs.items():
        (root / f"{name}.json").write_text(json.dumps(spec))
    return {name: str(root / f"{name}.json") for name in specs}


def digests(files, case) -> tuple:
    """The SHA-256 digests of a case's stdout, one per seed (one in all for an unseeded case)."""
    argv, seeded = CASES[case]
    argv = [arg.format(**files) for arg in argv]
    out = []
    for seed in SEEDS if seeded else (None,):
        with contextlib.redirect_stdout(io.StringIO()) as text:
            assert main(argv + ([] if seed is None else ["--seed", str(seed)])) == 0, case
        out.append(hashlib.sha256(text.getvalue().encode()).hexdigest())
    return tuple(out)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return write_files(tmp_path_factory.mktemp("cli-digests"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_pinned(files, case):
    assert digests(files, case) == DIGESTS[case]


if __name__ == "__main__":  # print the DIGESTS table of the current program
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_files(Path(tmp))
        rows = [f"    {case!r}: (" + "".join(f'\n        "{d}",' for d in digests(paths, case)) + "),"
                for case in sorted(CASES)]
    print("DIGESTS = {\n" + "\n".join(rows) + "\n}")

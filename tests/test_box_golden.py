"""A golden of every box form on the COMB-golden settings, and the
support bound of a box chain.

For each setting of tests/test_comb_golden.py, every colour's T-bar and
T-double-bar ell, every r = HalfInt(tw) with tw from ell.twice - 4 to
ell.twice + 24, and each variant plain, half and tilde, one line records
the rendered box_form or OutOfRange.  One digest per setting covers its
lines; `ineq blam --blocks 4` reaches only r <= ell + 4."""

import hashlib

import pytest

from test_comb_golden import SETTINGS
from wallcrystal.adapted_sequence import from_permutation
from wallcrystal.affine_data import HalfInt, parse_type, thresholds
from wallcrystal.linear_forms import render_form
from wallcrystal.wall_forms import OutOfRange, _box_points, box_form


def box_lines(setting):
    family, rank, order = setting.split()
    seq = from_permutation(parse_type(family, int(rank)),
                           tuple(int(c) for c in order.split(",")))
    X = seq.wall_type
    for k in X.index_set:
        for ell in thresholds(X, k)[1:]:
            for tw in range(ell.twice - 4, ell.twice + 25):
                r = HalfInt(tw)
                for variant in ("plain", "half", "tilde"):
                    try:
                        text = render_form(box_form(seq, ell, r, variant))
                    except OutOfRange:
                        text = "OutOfRange"
                    yield f"{k} {ell} {r} {variant} {text}"


def box_digest(setting):
    return hashlib.sha256("\n".join(box_lines(setting)).encode()).hexdigest()


# setting -> box_digest, recorded before box_form read its atoms from
# affine_data.cell_atoms
BOX_GOLDEN = {
    "A1 3 1,2,3":
        "f0430180b240b553895633a62bde7d649f2a1d769baaf7c6111de92ad81fefe8",
    "A1 3 1,3,2":
        "067f30dad2a3016068f4d8385d364ba5ba928baa261c526a9cea1b1cb7d23873",
    "A1 3 2,1,3":
        "d4b2d6ad438094e7584b2028a9b74d82968738561391dd25aaa27bbd690c7e47",
    "A1 3 2,3,1":
        "2dc322d58220ab803a003d044c989918dcd6ed6c34bfd703bfc69edc54b93ea0",
    "A1 3 3,1,2":
        "6a19e0a6a8bbf36638a605b5bfefc67f17b17ffdd44eb999241caf2cab4d1ca9",
    "A1 3 3,2,1":
        "7a9038abe17bc9483ef5b20221201f052414e71ba536ce532fb1679dc58977a1",
    "A2even 3 1,2,3":
        "081dec9bfd178504decd6baa832e837cf3420d41f06b36671f034197c740c382",
    "A2even 3 1,3,2":
        "5b77f59ca2f9e94205adc2ce33d31fb516806e584e26062b5030bfd73841716f",
    "A2even 3 2,1,3":
        "cf87d07a249632e44f132fc439e3cfbcd979e47183b9392ceba1f47cae588874",
    "A2even 3 2,3,1":
        "cf87d07a249632e44f132fc439e3cfbcd979e47183b9392ceba1f47cae588874",
    "A2even 3 3,1,2":
        "5b77f59ca2f9e94205adc2ce33d31fb516806e584e26062b5030bfd73841716f",
    "A2even 3 3,2,1":
        "8eaa9bcf085cf57c2f556c953575f207ffa75f6562d0dbf7d7fdd7c77830f7ce",
    "D2 3 1,2,3":
        "e5ff9739d8258989eb75dfb9fb693b4e86dea835df41e3d495cf851416bc106a",
    "D2 3 1,3,2":
        "186330e61486dbf0c38e0db2dc86bc550d07acb309b93d6168d98641c738b0bf",
    "D2 3 2,1,3":
        "cbc0e22aee0abf3420dd32035910452822163420d8d455fef08ffbca43d860ca",
    "D2 3 2,3,1":
        "cbc0e22aee0abf3420dd32035910452822163420d8d455fef08ffbca43d860ca",
    "D2 3 3,1,2":
        "186330e61486dbf0c38e0db2dc86bc550d07acb309b93d6168d98641c738b0bf",
    "D2 3 3,2,1":
        "f6ffd736094da739d29e73af933a4b56aa120a10efa807de653514581143f2b8",
    "C1 3 1,2,3":
        "80024cca9672f3ecf793bf807388a81c147b128b53565005fd31d0804319a8de",
    "C1 3 1,3,2":
        "e060b864ca4dffc620772fa8b1e3831f4f3010fe321caf08be0831babb550f2f",
    "C1 3 2,1,3":
        "2104f0bcab4be08aa0fc2c91ed32a6813f3e7bf51b12e0241325cae5e2081b0d",
    "C1 3 2,3,1":
        "2104f0bcab4be08aa0fc2c91ed32a6813f3e7bf51b12e0241325cae5e2081b0d",
    "C1 3 3,1,2":
        "e060b864ca4dffc620772fa8b1e3831f4f3010fe321caf08be0831babb550f2f",
    "C1 3 3,2,1":
        "eb76f11067cfbdedc59a79ce87bde05c38c58721e95e6c91823ca16049ffd857",
    "B1 4 1,2,3,4":
        "98af9f2cbc3c2a7f8ec1ae71e64770a5a9a966d2a43ffa5804a4f75919e13744",
    "B1 4 1,2,4,3":
        "09c02ac18ec2478f1bf4dbf5c8ff2b121b1f6bd448cf2e42c856c92057c1b74f",
    "B1 4 1,3,2,4":
        "5faead36032aa1c8db5590d95c952172d9337fc4f24305e17c1c5c5116a0e90b",
    "B1 4 1,3,4,2":
        "5faead36032aa1c8db5590d95c952172d9337fc4f24305e17c1c5c5116a0e90b",
    "B1 4 1,4,2,3":
        "09c02ac18ec2478f1bf4dbf5c8ff2b121b1f6bd448cf2e42c856c92057c1b74f",
    "B1 4 1,4,3,2":
        "23114f431b4e8f3916a22ec37ef942d3f92581765142dd0a872b50b0bb7068ef",
    "B1 4 2,1,3,4":
        "98af9f2cbc3c2a7f8ec1ae71e64770a5a9a966d2a43ffa5804a4f75919e13744",
    "B1 4 2,1,4,3":
        "09c02ac18ec2478f1bf4dbf5c8ff2b121b1f6bd448cf2e42c856c92057c1b74f",
    "B1 4 2,3,1,4":
        "da0f9f58b942e09a2fec8bbb560655483742407b4a42af6c37ec5a89365e4d47",
    "B1 4 2,3,4,1":
        "da0f9f58b942e09a2fec8bbb560655483742407b4a42af6c37ec5a89365e4d47",
    "B1 4 2,4,1,3":
        "09c02ac18ec2478f1bf4dbf5c8ff2b121b1f6bd448cf2e42c856c92057c1b74f",
    "B1 4 2,4,3,1":
        "83ed84a3a531820cd12884d3568f195b50ae377d2d54fc6b3f64d0a1baa67615",
    "B1 4 3,1,2,4":
        "4c5973db8941809115b1c41cd44a84f5f195fb5e4a1d564c7d0894ebd1c6108c",
    "B1 4 3,1,4,2":
        "4c5973db8941809115b1c41cd44a84f5f195fb5e4a1d564c7d0894ebd1c6108c",
    "B1 4 3,2,1,4":
        "4c5973db8941809115b1c41cd44a84f5f195fb5e4a1d564c7d0894ebd1c6108c",
    "B1 4 3,2,4,1":
        "4c5973db8941809115b1c41cd44a84f5f195fb5e4a1d564c7d0894ebd1c6108c",
    "B1 4 3,4,1,2":
        "4c5973db8941809115b1c41cd44a84f5f195fb5e4a1d564c7d0894ebd1c6108c",
    "B1 4 3,4,2,1":
        "4c5973db8941809115b1c41cd44a84f5f195fb5e4a1d564c7d0894ebd1c6108c",
    "B1 4 4,1,2,3":
        "09c02ac18ec2478f1bf4dbf5c8ff2b121b1f6bd448cf2e42c856c92057c1b74f",
    "B1 4 4,1,3,2":
        "23114f431b4e8f3916a22ec37ef942d3f92581765142dd0a872b50b0bb7068ef",
    "B1 4 4,2,1,3":
        "09c02ac18ec2478f1bf4dbf5c8ff2b121b1f6bd448cf2e42c856c92057c1b74f",
    "B1 4 4,2,3,1":
        "83ed84a3a531820cd12884d3568f195b50ae377d2d54fc6b3f64d0a1baa67615",
    "B1 4 4,3,1,2":
        "be4cdb425e62438c15478ee176c20fce6b3b253deb4477917460db1fc16da4f0",
    "B1 4 4,3,2,1":
        "be4cdb425e62438c15478ee176c20fce6b3b253deb4477917460db1fc16da4f0",
    "A2odd 4 1,2,3,4":
        "76d19edab432ef76bf2f4aabebbc3fe94f68c9a075ec6967470cd8fa6c1d9365",
    "A2odd 4 1,2,4,3":
        "db849a6ebca3e6a442cc64d0705c4355022ba17d5ff698240c945b8f6535bd6d",
    "A2odd 4 1,3,2,4":
        "1ccdba54bc8aa5134f59d0abde157c104f1ac65dd50f469dd98117c7654a7d74",
    "A2odd 4 1,3,4,2":
        "1ccdba54bc8aa5134f59d0abde157c104f1ac65dd50f469dd98117c7654a7d74",
    "A2odd 4 1,4,2,3":
        "db849a6ebca3e6a442cc64d0705c4355022ba17d5ff698240c945b8f6535bd6d",
    "A2odd 4 1,4,3,2":
        "c67c0e29f2d882ca4dd5a0e26387c6d3eac69aa342e8a949168afcf6490df7d1",
    "A2odd 4 2,1,3,4":
        "76d19edab432ef76bf2f4aabebbc3fe94f68c9a075ec6967470cd8fa6c1d9365",
    "A2odd 4 2,1,4,3":
        "db849a6ebca3e6a442cc64d0705c4355022ba17d5ff698240c945b8f6535bd6d",
    "A2odd 4 2,3,1,4":
        "736b035838c6fc5a55082917ead5d67a839118e77ab57beb57e78e18ff20110d",
    "A2odd 4 2,3,4,1":
        "736b035838c6fc5a55082917ead5d67a839118e77ab57beb57e78e18ff20110d",
    "A2odd 4 2,4,1,3":
        "db849a6ebca3e6a442cc64d0705c4355022ba17d5ff698240c945b8f6535bd6d",
    "A2odd 4 2,4,3,1":
        "55c4726acee16e271043e6083171620130054d40175546156256f367ec8f3345",
    "A2odd 4 3,1,2,4":
        "a6930ae523684eccc91a893cfbe324a14b0a7b23c1f548bdad6b1c3aeea6ee8a",
    "A2odd 4 3,1,4,2":
        "a6930ae523684eccc91a893cfbe324a14b0a7b23c1f548bdad6b1c3aeea6ee8a",
    "A2odd 4 3,2,1,4":
        "a6930ae523684eccc91a893cfbe324a14b0a7b23c1f548bdad6b1c3aeea6ee8a",
    "A2odd 4 3,2,4,1":
        "a6930ae523684eccc91a893cfbe324a14b0a7b23c1f548bdad6b1c3aeea6ee8a",
    "A2odd 4 3,4,1,2":
        "a6930ae523684eccc91a893cfbe324a14b0a7b23c1f548bdad6b1c3aeea6ee8a",
    "A2odd 4 3,4,2,1":
        "a6930ae523684eccc91a893cfbe324a14b0a7b23c1f548bdad6b1c3aeea6ee8a",
    "A2odd 4 4,1,2,3":
        "db849a6ebca3e6a442cc64d0705c4355022ba17d5ff698240c945b8f6535bd6d",
    "A2odd 4 4,1,3,2":
        "c67c0e29f2d882ca4dd5a0e26387c6d3eac69aa342e8a949168afcf6490df7d1",
    "A2odd 4 4,2,1,3":
        "db849a6ebca3e6a442cc64d0705c4355022ba17d5ff698240c945b8f6535bd6d",
    "A2odd 4 4,2,3,1":
        "55c4726acee16e271043e6083171620130054d40175546156256f367ec8f3345",
    "A2odd 4 4,3,1,2":
        "6f935d5e5db0ac69aff893a47f8e65246fdbbabba2c375f7e165522f740a84a0",
    "A2odd 4 4,3,2,1":
        "6f935d5e5db0ac69aff893a47f8e65246fdbbabba2c375f7e165522f740a84a0",
    "D1 6 6,5,4,3,2,1":
        "5c56b7464320364fc1c673da084c3c52258450ff8003314e595472920cb850e4",
    "D1 5 3,1,2,4,5":
        "93b3a2add38c6b670cae3f7e41411875d1e1719f044b53d792c153b714dc58ef",
    "D1 5 1,3,2,4,5":
        "b1ad490dac7b6bf689d1551917ea82453d8b11d68ef4e60a526d9a5ab806b7e8",
    "D1 5 1,2,3,4,5":
        "f24700c205770b6b38dbcef9cbaaccfdb60931c922d707518542a6a96ed12ddd",
    "D1 5 1,2,4,3,5":
        "fc7022044a9ea034a0a67abff0058cc9b3ead191b009c3734387ff34bcd75326",
    "D1 5 1,2,4,5,3":
        "c7c296a556d4f63401b1db7462987f56ba6582f835fead44f9172ffa16830389",
}


def test_the_box_golden_names_every_setting():
    assert sorted(BOX_GOLDEN) == sorted(SETTINGS)
    assert sum(1 for s in SETTINGS for _ in box_lines(s)) == 51330


@pytest.mark.parametrize("setting", SETTINGS)
def test_box_golden(setting):
    assert box_digest(setting) == BOX_GOLDEN[setting]


def test_box_chain_support_drops_less_than_the_rank():
    # along a box chain the largest single index of a form may fall below
    # that of an earlier form (by up to n - 1 on B1, A2odd and D1), but
    # never by n or more: a chain cut at a window W may stop once its
    # forms reach W + n, one period past W
    for setting in SETTINGS:
        family, rank, order = setting.split()
        seq = from_permutation(parse_type(family, int(rank)),
                               tuple(int(c) for c in order.split(",")))
        X = seq.wall_type
        for k in X.index_set:
            for ell in thresholds(X, k)[1:]:
                top = None
                for r, variant in _box_points(X, ell, 24):
                    phi = box_form(seq, ell, r, variant)
                    if not phi.terms:
                        continue
                    big = max(seq.single_index(d) for d, _ in phi.terms)
                    if top is not None:
                        assert top - big < seq.n, (setting, k, ell, r, variant)
                        big = max(top, big)
                    top = big

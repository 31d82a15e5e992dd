"""Goldens for the column moves and the shift tables on ranks the column
golden does not reach: every transition of every wall at budget 7, and
every value of P_ell(t) at T-bar and T-double-bar over three periods."""

import hashlib
import itertools

import pytest

from wallcrystal.affine_data import (
    HalfInt, domain_points, parse_type, period, thresholds,
)
from wallcrystal.adapted_sequence import from_permutation
from wallcrystal.walls import enumerate_walls, transitions


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


# (wall type, rank) -> sha256 of repr((site, successor)) over transitions(w)
# for every wall of enumerate_walls(X, k, 7) and every colour k
TRANSITION_GOLDEN = {
    ('A1', 4):
        '2bc0191f25400a7571ae5356852fa09e518f6235a8913f3e0188e12546615b22',
    ('B1', 5):
        'd9b22af37b5a7adb291054d9dc4e800d3319049eeb963256d185eeb1f4386c7c',
    ('B1', 6):
        '8384d89c4122a60880a596714373f0ceebdfed75323e8e1d5eab3ba08b716d7c',
    ('D1', 5):
        '4b2743bc90c61e579224bcd39aa56b61a6a2304579dc1f10f9d3995e8b79bc74',
    ('D1', 7):
        'ad53e36d7e07a9d12b1e573c03cc32201ffed02923340bb223fbd6d4cbd025ba',
    ('A2odd', 5):
        'fd3843812a9da6f0a5018f729ea65ddda3abe0aaeccdb601e7f54a1527c75c25',
    ('C1', 4):
        '214cd9091a59a04c82797dad365f3bd5d30442d6bc6f7fa6831ed0a80cce9989',
    ('C1', 5):
        '6bf29105a8acf88d309d2e9f2f02432b906c3db0de13d28b9f9e593b4326a3f2',
    ('D2', 4):
        '56d9b34e4b04bf57caa131c6be2a8420040d033e129e9881e24f19deeb515425',
    ('D2', 5):
        '83d228a94f85f25f09c4310dc59f186d0e5d8078e057ea8ea5a21889d5c4faf0',
    ('A2even', 4):
        '7e36da70833a700cd48050bed077a8bf966c91b8150e0670dae0d256118b99f8',
    ('A2evenDagger', 4):
        '54c82447ba3b6e188ff5df3790cb1b545f513c950f3b928966d465be64ccd878',
}


def _transition_lines(X):
    for k in X.index_set:
        for w in enumerate_walls(X, k, 7):
            for move in transitions(w):
                yield repr(move)


@pytest.mark.parametrize("family,n", list(TRANSITION_GOLDEN))
def test_transition_golden(family, n):
    got = _digest(_transition_lines(parse_type(family, n)))
    assert got == TRANSITION_GOLDEN[(family, n)]


# (type of g, rank, order) -> sha256 of P_ell(t), or the name of the
# exception it raises, for ell in T-bar_k and T-double-bar_k of every
# colour k of the wall type, and t in D_X from 1 to ell + 3 periods
SHIFT_GOLDEN = {
    ('C1', 3, (1, 2, 3)):
        '563bb8cb5d39638125fee04a1d451a5bf830b9a6282a14ae6e8c57bdca09a3fc',
    ('C1', 3, (1, 3, 2)):
        'e5b566ce69bfb6e2b4068b82e6db8cee293b83703660419ba6ab69b7256fa2e7',
    ('C1', 3, (2, 1, 3)):
        '99ca9531ca478e182ed7b7e50fe74564031bcabe50e69424cd0f310f2708025f',
    ('C1', 3, (2, 3, 1)):
        '99ca9531ca478e182ed7b7e50fe74564031bcabe50e69424cd0f310f2708025f',
    ('C1', 3, (3, 1, 2)):
        'e5b566ce69bfb6e2b4068b82e6db8cee293b83703660419ba6ab69b7256fa2e7',
    ('C1', 3, (3, 2, 1)):
        'fb2f0089916328a4aa06f162a4cda3e82491bf92049497bffff28c83a5bcb891',
    ('D2', 3, (1, 2, 3)):
        '563bb8cb5d39638125fee04a1d451a5bf830b9a6282a14ae6e8c57bdca09a3fc',
    ('D2', 3, (1, 3, 2)):
        'e5b566ce69bfb6e2b4068b82e6db8cee293b83703660419ba6ab69b7256fa2e7',
    ('D2', 3, (2, 1, 3)):
        '99ca9531ca478e182ed7b7e50fe74564031bcabe50e69424cd0f310f2708025f',
    ('D2', 3, (2, 3, 1)):
        '99ca9531ca478e182ed7b7e50fe74564031bcabe50e69424cd0f310f2708025f',
    ('D2', 3, (3, 1, 2)):
        'e5b566ce69bfb6e2b4068b82e6db8cee293b83703660419ba6ab69b7256fa2e7',
    ('D2', 3, (3, 2, 1)):
        'fb2f0089916328a4aa06f162a4cda3e82491bf92049497bffff28c83a5bcb891',
    ('A1', 3, (1, 2, 3)):
        '13b27a2bd653333901f937349059b411965605929c586d77159c28a430883933',
    ('A1', 3, (1, 3, 2)):
        'c448d30d5464b1273d7232c95e363cd445e6673e3f80ca1937c72a1447f6c11a',
    ('A1', 3, (2, 1, 3)):
        'c46d4babd58273f5955b2b91ac9a96f1092b010744471e41def597faf2536736',
    ('A1', 3, (2, 3, 1)):
        'e7d80f74ef51111d2604058fbecdd7fc389c96e3936fe5df62c925902cfb677d',
    ('A1', 3, (3, 1, 2)):
        '6e482fcf0db24d2e6d78da7d6ada321742495d35d90c228997c16ee0e9f6f156',
    ('A1', 3, (3, 2, 1)):
        'a20aa7ab7205a1fe190638f29a36e9080dfc0a6f58b25c13a104f48c33dbe063',
    ('A2even', 3, (1, 2, 3)):
        '563bb8cb5d39638125fee04a1d451a5bf830b9a6282a14ae6e8c57bdca09a3fc',
    ('A2even', 3, (1, 3, 2)):
        'e5b566ce69bfb6e2b4068b82e6db8cee293b83703660419ba6ab69b7256fa2e7',
    ('A2even', 3, (2, 1, 3)):
        '99ca9531ca478e182ed7b7e50fe74564031bcabe50e69424cd0f310f2708025f',
    ('A2even', 3, (2, 3, 1)):
        '99ca9531ca478e182ed7b7e50fe74564031bcabe50e69424cd0f310f2708025f',
    ('A2even', 3, (3, 1, 2)):
        'e5b566ce69bfb6e2b4068b82e6db8cee293b83703660419ba6ab69b7256fa2e7',
    ('A2even', 3, (3, 2, 1)):
        'fb2f0089916328a4aa06f162a4cda3e82491bf92049497bffff28c83a5bcb891',
    ('B1', 4, (1, 2, 3, 4)):
        'd4198bac62267e9761bca73fe13bfac0292c2cb5dd4272034d27f1d7136c5eff',
    ('B1', 4, (1, 2, 4, 3)):
        '282feaf37797eeb13bbf067aae506480b0fbc4da7fda65771942df67483e79f9',
    ('B1', 4, (1, 3, 2, 4)):
        'fa11332aa9b05b30df900ae6a9638e39ff3f049baed464226e233eeebafe8354',
    ('B1', 4, (1, 3, 4, 2)):
        'fa11332aa9b05b30df900ae6a9638e39ff3f049baed464226e233eeebafe8354',
    ('B1', 4, (1, 4, 2, 3)):
        '282feaf37797eeb13bbf067aae506480b0fbc4da7fda65771942df67483e79f9',
    ('B1', 4, (1, 4, 3, 2)):
        '29f8e821f39c5c62a42489e5e134cf854184995736d9066d624efff776c5e044',
    ('B1', 4, (2, 1, 3, 4)):
        'd4198bac62267e9761bca73fe13bfac0292c2cb5dd4272034d27f1d7136c5eff',
    ('B1', 4, (2, 1, 4, 3)):
        '282feaf37797eeb13bbf067aae506480b0fbc4da7fda65771942df67483e79f9',
    ('B1', 4, (2, 3, 1, 4)):
        '97034042ba3519ab032e1cbd2f51abc0991735ceb3237b7319e3a642a3b207f8',
    ('B1', 4, (2, 3, 4, 1)):
        '97034042ba3519ab032e1cbd2f51abc0991735ceb3237b7319e3a642a3b207f8',
    ('B1', 4, (2, 4, 1, 3)):
        '282feaf37797eeb13bbf067aae506480b0fbc4da7fda65771942df67483e79f9',
    ('B1', 4, (2, 4, 3, 1)):
        'b6e5267ed3baa33ada3f86d3086cb15233e508261bf44b2fc90fec5a6fdedf80',
    ('B1', 4, (3, 1, 2, 4)):
        'd0a80f2e2f590cd35df13cfa661c12dc75ca65d339f152bb94ca06f8bf33c65e',
    ('B1', 4, (3, 1, 4, 2)):
        'd0a80f2e2f590cd35df13cfa661c12dc75ca65d339f152bb94ca06f8bf33c65e',
    ('B1', 4, (3, 2, 1, 4)):
        'd0a80f2e2f590cd35df13cfa661c12dc75ca65d339f152bb94ca06f8bf33c65e',
    ('B1', 4, (3, 2, 4, 1)):
        'd0a80f2e2f590cd35df13cfa661c12dc75ca65d339f152bb94ca06f8bf33c65e',
    ('B1', 4, (3, 4, 1, 2)):
        'd0a80f2e2f590cd35df13cfa661c12dc75ca65d339f152bb94ca06f8bf33c65e',
    ('B1', 4, (3, 4, 2, 1)):
        'd0a80f2e2f590cd35df13cfa661c12dc75ca65d339f152bb94ca06f8bf33c65e',
    ('B1', 4, (4, 1, 2, 3)):
        '282feaf37797eeb13bbf067aae506480b0fbc4da7fda65771942df67483e79f9',
    ('B1', 4, (4, 1, 3, 2)):
        '29f8e821f39c5c62a42489e5e134cf854184995736d9066d624efff776c5e044',
    ('B1', 4, (4, 2, 1, 3)):
        '282feaf37797eeb13bbf067aae506480b0fbc4da7fda65771942df67483e79f9',
    ('B1', 4, (4, 2, 3, 1)):
        'b6e5267ed3baa33ada3f86d3086cb15233e508261bf44b2fc90fec5a6fdedf80',
    ('B1', 4, (4, 3, 1, 2)):
        '31cad8fadc76e6b2e43e3950e24955de4a725b1b947afb3b4df9c5a5d8c76674',
    ('B1', 4, (4, 3, 2, 1)):
        '31cad8fadc76e6b2e43e3950e24955de4a725b1b947afb3b4df9c5a5d8c76674',
    ('A2odd', 4, (1, 2, 3, 4)):
        'd4198bac62267e9761bca73fe13bfac0292c2cb5dd4272034d27f1d7136c5eff',
    ('A2odd', 4, (1, 2, 4, 3)):
        '282feaf37797eeb13bbf067aae506480b0fbc4da7fda65771942df67483e79f9',
    ('A2odd', 4, (1, 3, 2, 4)):
        'fa11332aa9b05b30df900ae6a9638e39ff3f049baed464226e233eeebafe8354',
    ('A2odd', 4, (1, 3, 4, 2)):
        'fa11332aa9b05b30df900ae6a9638e39ff3f049baed464226e233eeebafe8354',
    ('A2odd', 4, (1, 4, 2, 3)):
        '282feaf37797eeb13bbf067aae506480b0fbc4da7fda65771942df67483e79f9',
    ('A2odd', 4, (1, 4, 3, 2)):
        '29f8e821f39c5c62a42489e5e134cf854184995736d9066d624efff776c5e044',
    ('A2odd', 4, (2, 1, 3, 4)):
        'd4198bac62267e9761bca73fe13bfac0292c2cb5dd4272034d27f1d7136c5eff',
    ('A2odd', 4, (2, 1, 4, 3)):
        '282feaf37797eeb13bbf067aae506480b0fbc4da7fda65771942df67483e79f9',
    ('A2odd', 4, (2, 3, 1, 4)):
        '97034042ba3519ab032e1cbd2f51abc0991735ceb3237b7319e3a642a3b207f8',
    ('A2odd', 4, (2, 3, 4, 1)):
        '97034042ba3519ab032e1cbd2f51abc0991735ceb3237b7319e3a642a3b207f8',
    ('A2odd', 4, (2, 4, 1, 3)):
        '282feaf37797eeb13bbf067aae506480b0fbc4da7fda65771942df67483e79f9',
    ('A2odd', 4, (2, 4, 3, 1)):
        'b6e5267ed3baa33ada3f86d3086cb15233e508261bf44b2fc90fec5a6fdedf80',
    ('A2odd', 4, (3, 1, 2, 4)):
        'd0a80f2e2f590cd35df13cfa661c12dc75ca65d339f152bb94ca06f8bf33c65e',
    ('A2odd', 4, (3, 1, 4, 2)):
        'd0a80f2e2f590cd35df13cfa661c12dc75ca65d339f152bb94ca06f8bf33c65e',
    ('A2odd', 4, (3, 2, 1, 4)):
        'd0a80f2e2f590cd35df13cfa661c12dc75ca65d339f152bb94ca06f8bf33c65e',
    ('A2odd', 4, (3, 2, 4, 1)):
        'd0a80f2e2f590cd35df13cfa661c12dc75ca65d339f152bb94ca06f8bf33c65e',
    ('A2odd', 4, (3, 4, 1, 2)):
        'd0a80f2e2f590cd35df13cfa661c12dc75ca65d339f152bb94ca06f8bf33c65e',
    ('A2odd', 4, (3, 4, 2, 1)):
        'd0a80f2e2f590cd35df13cfa661c12dc75ca65d339f152bb94ca06f8bf33c65e',
    ('A2odd', 4, (4, 1, 2, 3)):
        '282feaf37797eeb13bbf067aae506480b0fbc4da7fda65771942df67483e79f9',
    ('A2odd', 4, (4, 1, 3, 2)):
        '29f8e821f39c5c62a42489e5e134cf854184995736d9066d624efff776c5e044',
    ('A2odd', 4, (4, 2, 1, 3)):
        '282feaf37797eeb13bbf067aae506480b0fbc4da7fda65771942df67483e79f9',
    ('A2odd', 4, (4, 2, 3, 1)):
        'b6e5267ed3baa33ada3f86d3086cb15233e508261bf44b2fc90fec5a6fdedf80',
    ('A2odd', 4, (4, 3, 1, 2)):
        '31cad8fadc76e6b2e43e3950e24955de4a725b1b947afb3b4df9c5a5d8c76674',
    ('A2odd', 4, (4, 3, 2, 1)):
        '31cad8fadc76e6b2e43e3950e24955de4a725b1b947afb3b4df9c5a5d8c76674',
    ('D1', 5, (1, 2, 3, 4, 5)):
        '9388e62134205bfc78cbfa20e6f891fd30208bbc903c81673ee1802198425f70',
    ('D1', 5, (1, 3, 2, 5, 4)):
        'b46573e7d15d1ac957c7fc20ecf2b8843bc4ec443107ff96d1b95dee8ab62d72',
    ('D1', 5, (1, 4, 3, 2, 5)):
        '5d3de441e08bcf79f1cce6523a68ff1835b98c2ddfb11427bd4ee98d413014f9',
    ('D1', 5, (1, 5, 3, 4, 2)):
        'e4a3ecbf0528db611313932b6a8549870da2cacc86ed27d95f5a742fa1ef9993',
    ('D1', 5, (2, 1, 5, 3, 4)):
        '147cfdcd17d5e46d79461662f253d1a9a441b01a8eb753c11d33a64e6aa24e98',
    ('D1', 5, (2, 3, 5, 4, 1)):
        '4ec9602fdd5e5e0fd688562e030ed959a5ca84b5567f3fe6cbce03ab771bebe3',
    ('D1', 5, (2, 5, 1, 3, 4)):
        '147cfdcd17d5e46d79461662f253d1a9a441b01a8eb753c11d33a64e6aa24e98',
    ('D1', 5, (3, 1, 2, 5, 4)):
        '6dcf5af0992da7cfa610cd62720000e40fc7624dc43f311b7deda15d26b04e2d',
    ('D1', 5, (3, 2, 4, 1, 5)):
        '6dcf5af0992da7cfa610cd62720000e40fc7624dc43f311b7deda15d26b04e2d',
    ('D1', 5, (3, 4, 2, 5, 1)):
        '6dcf5af0992da7cfa610cd62720000e40fc7624dc43f311b7deda15d26b04e2d',
    ('D1', 5, (3, 5, 4, 1, 2)):
        '6dcf5af0992da7cfa610cd62720000e40fc7624dc43f311b7deda15d26b04e2d',
    ('D1', 5, (4, 1, 5, 3, 2)):
        '6ed1e150ed18ead5dabe9933fd7859d39aa6acc9d55eb3b6efbd0790c1eefcfd',
    ('D1', 5, (4, 3, 1, 2, 5)):
        '28879c37c5dcb410d9db1bce60fe74e0fb367b7c82374103148514d70de70b36',
    ('D1', 5, (4, 5, 1, 3, 2)):
        '6ed1e150ed18ead5dabe9933fd7859d39aa6acc9d55eb3b6efbd0790c1eefcfd',
    ('D1', 5, (5, 1, 3, 2, 4)):
        'e4a3ecbf0528db611313932b6a8549870da2cacc86ed27d95f5a742fa1ef9993',
    ('D1', 5, (5, 2, 3, 4, 1)):
        '50e60e3215977b40fd5e747452370cafe17e5305ba9f91ae4a6b5ffc4b3fc2b2',
    ('D1', 5, (5, 3, 4, 1, 2)):
        '4668121880db72ce010b96f5827c45e047620142ace65ec056c421c7c2f6b655',
    ('D1', 5, (5, 4, 3, 2, 1)):
        '6ed892824af0d46b343ee30c9d28d60c0b5b01d01f4cb12c806b7a5faee5f259',
    ('B1', 5, (1, 2, 3, 4, 5)):
        '51fba35969ccd98947f54acc3feee9ed647e3fec3238ad47d1d1ff5bd52518ef',
    ('B1', 5, (1, 3, 2, 5, 4)):
        'a14a1c55edd164e28c9631f170f0ed435cc21b2ba95ec049b3c4469ce7924c8b',
    ('B1', 5, (1, 4, 3, 2, 5)):
        'e1bc3f48d82d03b08db0d522299c287332387b7301ba8af5c977904615a2e911',
    ('B1', 5, (1, 5, 3, 4, 2)):
        'a14a1c55edd164e28c9631f170f0ed435cc21b2ba95ec049b3c4469ce7924c8b',
    ('B1', 5, (2, 1, 5, 3, 4)):
        'b6a03deb841c2e94ba2d25b575811aecc2d18b3412f52ae1b34b9ff856158491',
    ('B1', 5, (2, 3, 5, 4, 1)):
        'bca3e014039239a9137c50bcde7e62295ede00caa69edfded272afaee9d39fde',
    ('B1', 5, (2, 5, 1, 3, 4)):
        'b6a03deb841c2e94ba2d25b575811aecc2d18b3412f52ae1b34b9ff856158491',
    ('B1', 5, (3, 1, 2, 5, 4)):
        'e63285be3e20eb691bbbd59f1fa768f8a7cbce0b7c7ac1255855e361d82eab06',
    ('B1', 5, (3, 2, 4, 1, 5)):
        'ee3925a8e899ea8350fc4d2faaa798fd15d51b42e4964b4c34900ef54371a5ca',
    ('B1', 5, (3, 4, 2, 5, 1)):
        'ee3925a8e899ea8350fc4d2faaa798fd15d51b42e4964b4c34900ef54371a5ca',
    ('B1', 5, (3, 5, 4, 1, 2)):
        'e63285be3e20eb691bbbd59f1fa768f8a7cbce0b7c7ac1255855e361d82eab06',
    ('B1', 5, (4, 1, 5, 3, 2)):
        'e1bc3f48d82d03b08db0d522299c287332387b7301ba8af5c977904615a2e911',
    ('B1', 5, (4, 3, 1, 2, 5)):
        'a4e68db493a3ec74e0410670ed5749c9f399c95a340c4d88e719ed0aaaf1aa66',
    ('B1', 5, (4, 5, 1, 3, 2)):
        'e1bc3f48d82d03b08db0d522299c287332387b7301ba8af5c977904615a2e911',
    ('B1', 5, (5, 1, 3, 2, 4)):
        'a14a1c55edd164e28c9631f170f0ed435cc21b2ba95ec049b3c4469ce7924c8b',
    ('B1', 5, (5, 2, 3, 4, 1)):
        'bca3e014039239a9137c50bcde7e62295ede00caa69edfded272afaee9d39fde',
    ('B1', 5, (5, 3, 4, 1, 2)):
        'e63285be3e20eb691bbbd59f1fa768f8a7cbce0b7c7ac1255855e361d82eab06',
    ('B1', 5, (5, 4, 3, 2, 1)):
        '8099fe8bc3ac8b12205a90203d2985a62f076113fb6347c03b14392e8904787b',
    ('D1', 6, (1, 2, 3, 4, 5, 6)):
        'e843b85c18446f265ace7994f4d59f3baa60c07fac804fc7c4b6a9f83e4bb032',
    ('D1', 6, (1, 2, 4, 3, 6, 5)):
        '1df24e69a2ad624ce99db3ffacc4c66308d45dc84c09a6d8a9ee1fc419b7d571',
    ('D1', 6, (1, 2, 5, 4, 3, 6)):
        '8b58e0d50ee9c79a2aa2b91f7daa2ffc32d2393459a07e7e663d20bce539b6ca',
    ('D1', 6, (1, 2, 6, 4, 5, 3)):
        '24353b98066afcb9129bffb4cb42f0d9aaed4f15ecfed0cec18eae17a688b897',
    ('D1', 6, (1, 3, 2, 6, 4, 5)):
        '2e57b64c06ee9353ed3c84d577df6114324b27aceff1fab6bb189b8e8f73fee5',
    ('D1', 6, (1, 3, 4, 6, 5, 2)):
        'ee32d0d4b8c11a80110889723aba563292c3c2080d93279d336d7c620dce8995',
    ('D1', 6, (1, 3, 6, 2, 4, 5)):
        '2e57b64c06ee9353ed3c84d577df6114324b27aceff1fab6bb189b8e8f73fee5',
    ('D1', 6, (1, 4, 2, 3, 6, 5)):
        '1df24e69a2ad624ce99db3ffacc4c66308d45dc84c09a6d8a9ee1fc419b7d571',
    ('D1', 6, (1, 4, 3, 5, 2, 6)):
        '98ee673c68af89764e5884e92c39c0c5c235e74f2629538e3485568dbae67052',
    ('D1', 6, (1, 4, 5, 3, 6, 2)):
        '98ee673c68af89764e5884e92c39c0c5c235e74f2629538e3485568dbae67052',
    ('D1', 6, (1, 4, 6, 5, 2, 3)):
        '1df24e69a2ad624ce99db3ffacc4c66308d45dc84c09a6d8a9ee1fc419b7d571',
    ('D1', 6, (1, 5, 2, 6, 4, 3)):
        'f41077d257e8864447291e6aa039a7f816ab96da5d25f5c4c7931f78b839bd35',
    ('D1', 6, (1, 5, 4, 2, 3, 6)):
        '8b58e0d50ee9c79a2aa2b91f7daa2ffc32d2393459a07e7e663d20bce539b6ca',
    ('D1', 6, (1, 5, 6, 2, 4, 3)):
        'f41077d257e8864447291e6aa039a7f816ab96da5d25f5c4c7931f78b839bd35',
    ('D1', 6, (1, 6, 2, 4, 3, 5)):
        '24353b98066afcb9129bffb4cb42f0d9aaed4f15ecfed0cec18eae17a688b897',
    ('D1', 6, (1, 6, 3, 4, 5, 2)):
        '2e57b64c06ee9353ed3c84d577df6114324b27aceff1fab6bb189b8e8f73fee5',
    ('D1', 6, (1, 6, 4, 5, 2, 3)):
        '24353b98066afcb9129bffb4cb42f0d9aaed4f15ecfed0cec18eae17a688b897',
    ('D1', 6, (1, 6, 5, 4, 3, 2)):
        '75be84acba857dd63115ed43fa5fb6c270e4c75f1025d1d42a33058356f99ad3',
    ('D1', 6, (2, 1, 4, 3, 5, 6)):
        '1df24e69a2ad624ce99db3ffacc4c66308d45dc84c09a6d8a9ee1fc419b7d571',
    ('D1', 6, (2, 1, 5, 3, 6, 4)):
        '6ada8fb6d0f6cb7601111f740ce5aae575b4a7d014f59c37ab84e21a6a73f8b2',
    ('D1', 6, (2, 1, 6, 4, 3, 5)):
        '24353b98066afcb9129bffb4cb42f0d9aaed4f15ecfed0cec18eae17a688b897',
    ('D1', 6, (2, 3, 1, 5, 6, 4)):
        '3aa758c14c0a0bad53c252eb013ed1dad08e65aed989c4e5b76289347c698ea7',
    ('D1', 6, (2, 3, 4, 6, 1, 5)):
        '5d8e915695974d139f21aac34bde1efd8345b099243557cbc7fa59dba1858781',
    ('D1', 6, (2, 3, 5, 6, 4, 1)):
        '3aa758c14c0a0bad53c252eb013ed1dad08e65aed989c4e5b76289347c698ea7',
    ('D1', 6, (2, 4, 1, 3, 5, 6)):
        '1df24e69a2ad624ce99db3ffacc4c66308d45dc84c09a6d8a9ee1fc419b7d571',
    ('D1', 6, (2, 4, 3, 1, 6, 5)):
        '56ea9b571fca40c00a57867f9eaf1c0a07ec7deff2be4b0b6a3627c4caf9d994',
    ('D1', 6, (2, 4, 5, 3, 1, 6)):
        '56ea9b571fca40c00a57867f9eaf1c0a07ec7deff2be4b0b6a3627c4caf9d994',
    ('D1', 6, (2, 4, 6, 3, 5, 1)):
        '56ea9b571fca40c00a57867f9eaf1c0a07ec7deff2be4b0b6a3627c4caf9d994',
    ('D1', 6, (2, 5, 1, 6, 3, 4)):
        '6ada8fb6d0f6cb7601111f740ce5aae575b4a7d014f59c37ab84e21a6a73f8b2',
    ('D1', 6, (2, 5, 3, 6, 4, 1)):
        '3aa758c14c0a0bad53c252eb013ed1dad08e65aed989c4e5b76289347c698ea7',
    ('D1', 6, (2, 5, 6, 1, 3, 4)):
        '6ada8fb6d0f6cb7601111f740ce5aae575b4a7d014f59c37ab84e21a6a73f8b2',
    ('D1', 6, (2, 6, 1, 3, 5, 4)):
        '6ada8fb6d0f6cb7601111f740ce5aae575b4a7d014f59c37ab84e21a6a73f8b2',
    ('D1', 6, (2, 6, 3, 4, 1, 5)):
        '04284a035645db03422893929a695f6074046512b3562aa9361fe3ca53b81eb8',
    ('D1', 6, (2, 6, 4, 3, 5, 1)):
        '5746c106bae082cb6d6efd6fe8ac928973e934fe1f99f2fc87c9c638ba344263',
    ('D1', 6, (2, 6, 5, 4, 1, 3)):
        'f41077d257e8864447291e6aa039a7f816ab96da5d25f5c4c7931f78b839bd35',
    ('D1', 6, (3, 1, 2, 6, 5, 4)):
        '3cc0be6fed2f7aaa33defe6a22da246222d063a9dd6215b4d9e78d438feffdcc',
    ('D1', 6, (3, 1, 5, 2, 4, 6)):
        '6b243c399dc76b6a60437a15a458954e7c3ee6f0d79d579084b758d919c4aa3c',
    ('D1', 6, (3, 1, 6, 2, 5, 4)):
        '3cc0be6fed2f7aaa33defe6a22da246222d063a9dd6215b4d9e78d438feffdcc',
    ('D1', 6, (3, 2, 1, 5, 4, 6)):
        '6b243c399dc76b6a60437a15a458954e7c3ee6f0d79d579084b758d919c4aa3c',
    ('D1', 6, (3, 2, 4, 5, 6, 1)):
        'aa21e1b6d866b61e3068395184707904c6acdda110887b3cdaafd6038c42a902',
    ('D1', 6, (3, 2, 5, 6, 1, 4)):
        '3cc0be6fed2f7aaa33defe6a22da246222d063a9dd6215b4d9e78d438feffdcc',
    ('D1', 6, (3, 2, 6, 5, 4, 1)):
        '3cc0be6fed2f7aaa33defe6a22da246222d063a9dd6215b4d9e78d438feffdcc',
    ('D1', 6, (3, 4, 2, 1, 5, 6)):
        'aa21e1b6d866b61e3068395184707904c6acdda110887b3cdaafd6038c42a902',
    ('D1', 6, (3, 4, 5, 1, 6, 2)):
        'aa21e1b6d866b61e3068395184707904c6acdda110887b3cdaafd6038c42a902',
    ('D1', 6, (3, 4, 6, 2, 1, 5)):
        'aa21e1b6d866b61e3068395184707904c6acdda110887b3cdaafd6038c42a902',
    ('D1', 6, (3, 5, 1, 4, 6, 2)):
        '6b243c399dc76b6a60437a15a458954e7c3ee6f0d79d579084b758d919c4aa3c',
    ('D1', 6, (3, 5, 2, 6, 1, 4)):
        '3cc0be6fed2f7aaa33defe6a22da246222d063a9dd6215b4d9e78d438feffdcc',
    ('D1', 6, (3, 5, 4, 6, 2, 1)):
        '6b243c399dc76b6a60437a15a458954e7c3ee6f0d79d579084b758d919c4aa3c',
    ('D1', 6, (3, 6, 1, 2, 4, 5)):
        'd183c5aae34794255da0eb0a3f83160039530f0f555af4bd398af1afd6991250',
    ('D1', 6, (3, 6, 2, 1, 5, 4)):
        '3cc0be6fed2f7aaa33defe6a22da246222d063a9dd6215b4d9e78d438feffdcc',
    ('D1', 6, (3, 6, 4, 2, 1, 5)):
        'd183c5aae34794255da0eb0a3f83160039530f0f555af4bd398af1afd6991250',
    ('D1', 6, (3, 6, 5, 2, 4, 1)):
        '3cc0be6fed2f7aaa33defe6a22da246222d063a9dd6215b4d9e78d438feffdcc',
    ('D1', 6, (4, 1, 2, 6, 3, 5)):
        '1df24e69a2ad624ce99db3ffacc4c66308d45dc84c09a6d8a9ee1fc419b7d571',
    ('D1', 6, (4, 1, 3, 6, 5, 2)):
        '98ee673c68af89764e5884e92c39c0c5c235e74f2629538e3485568dbae67052',
    ('D1', 6, (4, 1, 6, 2, 3, 5)):
        '1df24e69a2ad624ce99db3ffacc4c66308d45dc84c09a6d8a9ee1fc419b7d571',
    ('D1', 6, (4, 2, 1, 3, 6, 5)):
        '1df24e69a2ad624ce99db3ffacc4c66308d45dc84c09a6d8a9ee1fc419b7d571',
    ('D1', 6, (4, 2, 3, 5, 1, 6)):
        '56ea9b571fca40c00a57867f9eaf1c0a07ec7deff2be4b0b6a3627c4caf9d994',
    ('D1', 6, (4, 2, 5, 3, 6, 1)):
        '56ea9b571fca40c00a57867f9eaf1c0a07ec7deff2be4b0b6a3627c4caf9d994',
    ('D1', 6, (4, 2, 6, 5, 1, 3)):
        '1df24e69a2ad624ce99db3ffacc4c66308d45dc84c09a6d8a9ee1fc419b7d571',
    ('D1', 6, (4, 3, 1, 6, 5, 2)):
        'ecbddcc45e7c3845207c267e232e071693226909e17e81cef8991f37a513654f',
    ('D1', 6, (4, 3, 5, 1, 2, 6)):
        'ecbddcc45e7c3845207c267e232e071693226909e17e81cef8991f37a513654f',
    ('D1', 6, (4, 3, 6, 1, 5, 2)):
        'ecbddcc45e7c3845207c267e232e071693226909e17e81cef8991f37a513654f',
    ('D1', 6, (4, 5, 1, 3, 2, 6)):
        '98ee673c68af89764e5884e92c39c0c5c235e74f2629538e3485568dbae67052',
    ('D1', 6, (4, 5, 2, 3, 6, 1)):
        '56ea9b571fca40c00a57867f9eaf1c0a07ec7deff2be4b0b6a3627c4caf9d994',
    ('D1', 6, (4, 5, 3, 6, 1, 2)):
        'ecbddcc45e7c3845207c267e232e071693226909e17e81cef8991f37a513654f',
    ('D1', 6, (4, 5, 6, 3, 2, 1)):
        'ecbddcc45e7c3845207c267e232e071693226909e17e81cef8991f37a513654f',
    ('D1', 6, (4, 6, 2, 1, 3, 5)):
        '1df24e69a2ad624ce99db3ffacc4c66308d45dc84c09a6d8a9ee1fc419b7d571',
    ('D1', 6, (4, 6, 3, 1, 5, 2)):
        'ecbddcc45e7c3845207c267e232e071693226909e17e81cef8991f37a513654f',
    ('D1', 6, (4, 6, 5, 2, 1, 3)):
        '1df24e69a2ad624ce99db3ffacc4c66308d45dc84c09a6d8a9ee1fc419b7d571',
    ('D1', 6, (5, 1, 2, 4, 6, 3)):
        '8b58e0d50ee9c79a2aa2b91f7daa2ffc32d2393459a07e7e663d20bce539b6ca',
    ('D1', 6, (5, 1, 3, 6, 2, 4)):
        'f2cfb717e7408226437d2534c634e60c501a016c6ea5256d8b341ca6b7c27666',
    ('D1', 6, (5, 1, 4, 6, 3, 2)):
        '9e1552a4d45329ca72a2073e6dc3eca7c9bc03ba86e84e5952b7d7506806af5d',
    ('D1', 6, (5, 2, 1, 3, 4, 6)):
        '87f36d7f771ec33a3504e11f8b7918ced140288c01a41782bb181f90930e7894',
    ('D1', 6, (5, 2, 3, 1, 6, 4)):
        '3aa758c14c0a0bad53c252eb013ed1dad08e65aed989c4e5b76289347c698ea7',
    ('D1', 6, (5, 2, 4, 3, 1, 6)):
        '94984eba2a4d2a03695bb1f32d6b20f2e8e55417d22c3c9a0e089be1f6553ad9',
    ('D1', 6, (5, 2, 6, 3, 4, 1)):
        '3aa758c14c0a0bad53c252eb013ed1dad08e65aed989c4e5b76289347c698ea7',
    ('D1', 6, (5, 3, 1, 6, 2, 4)):
        '3cc0be6fed2f7aaa33defe6a22da246222d063a9dd6215b4d9e78d438feffdcc',
    ('D1', 6, (5, 3, 2, 6, 4, 1)):
        '3cc0be6fed2f7aaa33defe6a22da246222d063a9dd6215b4d9e78d438feffdcc',
    ('D1', 6, (5, 3, 6, 1, 2, 4)):
        '3cc0be6fed2f7aaa33defe6a22da246222d063a9dd6215b4d9e78d438feffdcc',
    ('D1', 6, (5, 4, 1, 2, 6, 3)):
        '8b58e0d50ee9c79a2aa2b91f7daa2ffc32d2393459a07e7e663d20bce539b6ca',
    ('D1', 6, (5, 4, 2, 3, 1, 6)):
        '94984eba2a4d2a03695bb1f32d6b20f2e8e55417d22c3c9a0e089be1f6553ad9',
    ('D1', 6, (5, 4, 3, 2, 6, 1)):
        'c89c94cbad528b728a8fb8f0936bd1657e37f6f827c8dbe0eff30ce727fcea7a',
    ('D1', 6, (5, 4, 6, 3, 1, 2)):
        'c89c94cbad528b728a8fb8f0936bd1657e37f6f827c8dbe0eff30ce727fcea7a',
    ('D1', 6, (5, 6, 1, 4, 3, 2)):
        '75be84acba857dd63115ed43fa5fb6c270e4c75f1025d1d42a33058356f99ad3',
    ('D1', 6, (5, 6, 3, 1, 2, 4)):
        '3cc0be6fed2f7aaa33defe6a22da246222d063a9dd6215b4d9e78d438feffdcc',
    ('D1', 6, (5, 6, 4, 1, 3, 2)):
        '75be84acba857dd63115ed43fa5fb6c270e4c75f1025d1d42a33058356f99ad3',
    ('D1', 6, (6, 1, 2, 4, 3, 5)):
        '24353b98066afcb9129bffb4cb42f0d9aaed4f15ecfed0cec18eae17a688b897',
    ('D1', 6, (6, 1, 3, 4, 5, 2)):
        '2e57b64c06ee9353ed3c84d577df6114324b27aceff1fab6bb189b8e8f73fee5',
    ('D1', 6, (6, 1, 4, 5, 2, 3)):
        '24353b98066afcb9129bffb4cb42f0d9aaed4f15ecfed0cec18eae17a688b897',
    ('D1', 6, (6, 1, 5, 4, 3, 2)):
        '75be84acba857dd63115ed43fa5fb6c270e4c75f1025d1d42a33058356f99ad3',
    ('D1', 6, (6, 2, 3, 1, 4, 5)):
        '04284a035645db03422893929a695f6074046512b3562aa9361fe3ca53b81eb8',
    ('D1', 6, (6, 2, 4, 1, 5, 3)):
        '24353b98066afcb9129bffb4cb42f0d9aaed4f15ecfed0cec18eae17a688b897',
    ('D1', 6, (6, 2, 5, 3, 1, 4)):
        '3aa758c14c0a0bad53c252eb013ed1dad08e65aed989c4e5b76289347c698ea7',
    ('D1', 6, (6, 3, 1, 4, 5, 2)):
        'd183c5aae34794255da0eb0a3f83160039530f0f555af4bd398af1afd6991250',
    ('D1', 6, (6, 3, 2, 5, 1, 4)):
        '3cc0be6fed2f7aaa33defe6a22da246222d063a9dd6215b4d9e78d438feffdcc',
    ('D1', 6, (6, 3, 4, 5, 2, 1)):
        'd183c5aae34794255da0eb0a3f83160039530f0f555af4bd398af1afd6991250',
    ('D1', 6, (6, 4, 1, 2, 3, 5)):
        '24353b98066afcb9129bffb4cb42f0d9aaed4f15ecfed0cec18eae17a688b897',
    ('D1', 6, (6, 4, 2, 1, 5, 3)):
        '24353b98066afcb9129bffb4cb42f0d9aaed4f15ecfed0cec18eae17a688b897',
    ('D1', 6, (6, 4, 3, 2, 1, 5)):
        'c27dde57e768a83185979aa9761638f236f85fe804e301c5b892a5362af6de00',
    ('D1', 6, (6, 4, 5, 2, 3, 1)):
        '5746c106bae082cb6d6efd6fe8ac928973e934fe1f99f2fc87c9c638ba344263',
    ('D1', 6, (6, 5, 1, 4, 2, 3)):
        'f41077d257e8864447291e6aa039a7f816ab96da5d25f5c4c7931f78b839bd35',
    ('D1', 6, (6, 5, 2, 4, 3, 1)):
        'f62b3952b88e85d0096613cee25a8b0dfab497f203b4ca7aa0ce72ab7c97b58f',
    ('D1', 6, (6, 5, 4, 1, 2, 3)):
        'f41077d257e8864447291e6aa039a7f816ab96da5d25f5c4c7931f78b839bd35',
}


def _shift_settings():
    for family, n, step in (("C1", 3, 1), ("D2", 3, 1), ("A1", 3, 1),
                            ("A2even", 3, 1), ("B1", 4, 1), ("A2odd", 4, 1),
                            ("D1", 5, 7), ("B1", 5, 7), ("D1", 6, 7)):
        for order in list(itertools.permutations(range(1, n + 1)))[::step]:
            yield family, n, order


def _shift_lines(seq):
    X = seq.wall_type
    for k in X.index_set:
        for ell in thresholds(X, k)[1:]:
            P = seq.shift_table(ell)
            stop = ell + HalfInt(3 * period(X).twice)
            for t in domain_points(X, 1, stop):
                try:
                    value = P(t)
                except ValueError as e:
                    value = type(e).__name__
                yield f"{ell} {t} {value}"


@pytest.mark.parametrize("family,n,order", list(SHIFT_GOLDEN))
def test_shift_golden(family, n, order):
    seq = from_permutation(parse_type(family, n), order)
    assert _digest(_shift_lines(seq)) == SHIFT_GOLDEN[(family, n, order)]


"""Golden for the root-system tables of every family at ranks min..12: one
sha256 per (family, rank) over the Cartan matrix, the dual, the period,
the half-height colours, the split pairs, the class and thresholds of
every colour, and in_domain / periodic_map / cell_atoms (or the
DomainError they raise) at every half step in [-2P, 4P)."""

import hashlib

import pytest

from wallcrystal.affine_data import (
    AffineType, DomainError, Family, HalfInt, cartan_matrix, cell_atoms,
    half_height_colors, in_domain, index_class, langlands_dual, period,
    periodic_map, split_cell_pairs, thresholds,
)

MIN_N = {
    Family.A1: 2, Family.B1: 4, Family.C1: 3, Family.D1: 5,
    Family.A2EVEN: 3, Family.A2EVEN_DAGGER: 3, Family.A2ODD: 4, Family.D2: 3,
}
MAX_N = 12


def _attempt(f, X, t) -> str:
    try:
        return repr(f(X, t))
    except DomainError as e:
        return f"DomainError({e})"


def root_system_lines(X):
    yield repr(cartan_matrix(X))
    yield str(langlands_dual(X))
    per = period(X)
    yield repr(per)
    yield repr(sorted(half_height_colors(X)))
    yield repr(split_cell_pairs(X))
    for k in X.index_set:
        yield f"{k} {index_class(X, k)} {thresholds(X, k)!r}"
    for tw in range(-2 * per.twice, 4 * per.twice):
        t = HalfInt(tw)
        yield " ".join((repr(t), repr(in_domain(X, t)),
                        _attempt(periodic_map, X, t),
                        _attempt(cell_atoms, X, t)))


def _digest(X) -> str:
    h = hashlib.sha256()
    for line in root_system_lines(X):
        h.update(line.encode() + b"\n")
    return h.hexdigest()


# (family, rank) -> sha256 of root_system_lines, one per line
ROOT_SYSTEM_GOLDEN = {
    ('A1', 2):
        '8a17b88906be1ed2908b0e04a0b68b0193fb1068de6e205a255fe1f7fe4b7e23',
    ('A1', 3):
        'cab43596bdeb92395fd5bc0209da1920ff0bac85b051e921555af02fd5722f8b',
    ('A1', 4):
        '4f6164ce9330ee1ad2c8df2d33d0f9039e5d50fb54ad63aa5ca9a7fa14f84d44',
    ('A1', 5):
        'c444aae20930ce64f92dcac05254b096b505d3bc0eec20679d83fc83c268b0d1',
    ('A1', 6):
        '4b370e672b5c855090bd6b1e6bb20df9abb8223101aa8632b66c89660bc88867',
    ('A1', 7):
        'e810fc4d695ebe29a1d8c9d5fac3c55b29e22d4700f07d2f01095f5a5730ca06',
    ('A1', 8):
        'ce1e6b64ecfbb607eca7087a4ae3fe549a1c12370637a11a80cabc85331eba1c',
    ('A1', 9):
        '130eebda0123ae2d7b56c3dbc24dee0ff7b19c9a888704d72b0986cbfdc00303',
    ('A1', 10):
        'e3645b0674565f13efcf5d4d991befe85e8baef626b225818f3040ae86ba6509',
    ('A1', 11):
        'f87078464ff2b74f92a747ebf3f58ea010ef2cfe88f5dab870e80b032c503794',
    ('A1', 12):
        '3e5f2af3b091b2685a0625c6d7348a001dd98e5dc0e28564004bb888408338e8',
    ('B1', 4):
        'a24739243f3ecec5b4ef4eb71d02344623cd080edd347eb5a9d445f79a8d0267',
    ('B1', 5):
        'cbf286ece50465af915d4da8636d2696f2c3c2de4ca124f56d68edc4c9cddc50',
    ('B1', 6):
        'b530ca988f868b02651a01e3866c1de8d3974bf0363296d21e5e52f077ec1f01',
    ('B1', 7):
        '0b19cb0397460aed4ff4df0e333bd22fedd837ed7703f31f22934641aa4fdad4',
    ('B1', 8):
        '02e5dee0d00878734f8fbdf607d9796fdda338d656027eb34582d110f39b2dc8',
    ('B1', 9):
        'ee5ddcc36386c9c29ebb214ba7fe7047e32fa4e2faf6697b48a66a7164f66145',
    ('B1', 10):
        'bd65138ae2b34fb5605140d14da5ec1dc94c4dfbe99e2fe3aec76df77defadbc',
    ('B1', 11):
        '09906af9ba046f26b4dfad78dfea973685ed979dd1d0aa2cac808f9f2fcba24f',
    ('B1', 12):
        '394bad1f5defdb5d139371e8abe9df7e85aac5f63d98629401a884e4ba56c5c2',
    ('C1', 3):
        '2f64f031eff962ed1559a469d7732842f8b3dbb97de500e303cdad8561f7be86',
    ('C1', 4):
        '0be7f637377a5b361c5b6ef1281a8d4dc194e7f69d0dc45efebd05ae1651e80a',
    ('C1', 5):
        'f766292eaaf95a4cec596a3b3e239adda3106564e9487d886bdde5ae878dd7c4',
    ('C1', 6):
        '74f29f72c9b2b5140fd6293800a164bab4b72dd4947b73269419c9772eca3d0f',
    ('C1', 7):
        '441495802d562e004a2e4c82feeea4db27b091160f3ad2c305678f379e99bd28',
    ('C1', 8):
        '0b2a88c8a259d537688a02b27c19645ce8881fca495201649f14a93c58109bfb',
    ('C1', 9):
        '2f46ab4ef1a630adec3822e908bc97b5ced0e57292f9ff3ce887ac43f2f2ab8b',
    ('C1', 10):
        '79748850c65566b00ab8869e72d53f9549bbd035f1c52821a3ace8fa85343062',
    ('C1', 11):
        '225afc6adc766dba1ddce790d19b6a8f0983c69dabb323df40dd9681d80e5b98',
    ('C1', 12):
        '31f952049a2a67b778ae0d4c490cc96f6945d53e6208ff9ec5872b1e457bffe2',
    ('D1', 5):
        '399c8a94d71cfd09f3fe73882d664955419501f33d374ff7673ddee6c91ee4e9',
    ('D1', 6):
        '4fc414f74fffb7625dc7b0645c5a7649c85f9f575c95e8ca7e5b34d8ff223594',
    ('D1', 7):
        'f53d377fd208fa264ecb57f8f2039cd6477fd8d8a224a196fdba82e75f4313a9',
    ('D1', 8):
        'f944bf9afdb6c3064fcc3e2a4ae9e404ce0b9c04808c73ff6935de1366172516',
    ('D1', 9):
        'e240bfb291861d4c6757fbe24274740292fa539e42ba9e81304f66beff5b1a19',
    ('D1', 10):
        '512ae29ce31547bad666a745f13d54ac2d4eb414c0116655c4efe99d31d6067c',
    ('D1', 11):
        '6c74b81c3009f60e4b03ef5187f0d382a6636722fd714a3f11485d5760bfdee3',
    ('D1', 12):
        'f796d48364cc828560793dd9a3a86cf5938a00b611abaa068cc83353cb1a1853',
    ('A2even', 3):
        '620098044c8e4b4c803d177d0ac269dec6af6f5c277f8e7990ecfe6587d4a32d',
    ('A2even', 4):
        '56978bad6791d2c1ad82fb0131f2e7e43a97cf23bc51dbf493cd14ad6ff83eef',
    ('A2even', 5):
        'cc8aa70f534f6f8b0006cf2d80e2b67b7ba208b78803ae19c87b657cf00742f0',
    ('A2even', 6):
        'b807416dfe40e5c667b545db61fac856c6dd22cca63d7efdf7b81a07287d17fb',
    ('A2even', 7):
        '2e324a0265bf3bacd9b382be0f8f9dd5eb3ccf41e48106600c151f3bc65736ab',
    ('A2even', 8):
        'd597a7d2b28ef4e10dd419b39099ba318ffa280f8e81eeca7971a0121559e0d6',
    ('A2even', 9):
        '9a29038258af1ffb3c7c21ffbbbb34c42eebc3b431d98c94d875e895de23f791',
    ('A2even', 10):
        '9fc35f129b9333f0dea3624e0ca33a520f1b74c2b6b43d891f8baa0c1348b0d5',
    ('A2even', 11):
        'f395c27682caaac7dea19b6c1b6e018f8b978b0ab46d36b2c24942232c024ab3',
    ('A2even', 12):
        'bdca8099313b918d28482095b31b898b9d66cd666e00fe3c05baa4a8563faf0f',
    ('A2evenDagger', 3):
        'c931f88d929050a118cf2bf67cad906b2665c60208e13244238af87e1ad1c863',
    ('A2evenDagger', 4):
        '8d1d39f2f30853919c3edca8ae4a6a0114a087de4b579c41c85d231a176b7dec',
    ('A2evenDagger', 5):
        '6c450dfacde27f7717ad6d329369eaf5f52d92ebd1dcc8e2c0538a34c3c33bbf',
    ('A2evenDagger', 6):
        'cdf0a4fdd7cd2098a7eb1411ddc908f7a9012f1d341d568c78b7da3fe51335a0',
    ('A2evenDagger', 7):
        '0b4fdaceab1927096332a9b2ea250af8c6400f18d49d5a4ac3b974b4b379bfc0',
    ('A2evenDagger', 8):
        'c927b7d727c70dfb41d491c7fa6baaf7e0b7512e31abef1c5aac3fe9bee297f1',
    ('A2evenDagger', 9):
        '053722781aa0696efbb61d3ae7113116d2023d1cc3b0b4da7544b54720202de6',
    ('A2evenDagger', 10):
        '5eb4da0abc62f83e7afdc47c1f9f8b2649f70dc778380b2eb308370d57f7572e',
    ('A2evenDagger', 11):
        '1e05e75667b7b18ba228d4c0db858f4835b7c022519aa650a7a705479bd64779',
    ('A2evenDagger', 12):
        '33c139997b19e0d56a1abd94dd785b3fa50068da835e3da0464bc86904449f68',
    ('A2odd', 4):
        '08c235727bd9b6c9cf114539fcd9561ac34512c9f5f62070aa284e3fd8293c2b',
    ('A2odd', 5):
        '61d1e0bce4208f26fb975303b802a2a10081475ab9c6dbf147236b0298087aff',
    ('A2odd', 6):
        'db7afbe855199e3a094f2a391ab1acab9ba0cb77077d9c68da302c0aaf9bb8bb',
    ('A2odd', 7):
        '2f4d8942cbef9876011a1d153008ec057478d64d26d628a84d3fc680a06f2033',
    ('A2odd', 8):
        'b761928fa6e8e53c4df2d989cdfc16824648c887d5663d4f6d4df48da99d7d79',
    ('A2odd', 9):
        '0401917a2846c35839bd0207311c32f4e27e60446e7395cde3cc5c4fd1b66f40',
    ('A2odd', 10):
        '59e34b2bd93b5add5a16835ea113ef0a83917ded6e3eb3baff49b28b7d806692',
    ('A2odd', 11):
        '59e48fe3c38f91597bdbdba36598d9420e3c3b26284a38ec6c7fe96dec957b79',
    ('A2odd', 12):
        '664bc7da36c82cf17cb495a2bcc9aae8ea1fb3abe921a6d4cb62b9c4e922efb0',
    ('D2', 3):
        '440b4d6316e89ed9bd4fad49c4ac83192d23105b9825f88aedad747fe4a19748',
    ('D2', 4):
        'b4216fa9c7bb6a5a8eb68c2fb11d10f3210893d8e5fcba351b1c0f8d07990951',
    ('D2', 5):
        '5111bc83bb187420b0e6728f7026e20a8ba4a83e0073081e2357bc89db287d71',
    ('D2', 6):
        '8a749043d0e0cc8a1740adfe0aa89d9dd830c762b4a6bf322ea30f9b848716e2',
    ('D2', 7):
        '8dda08c5742cd1b20daf5f3c56ab438a3a72e5271bfa81cf94653b61a1e30126',
    ('D2', 8):
        '1f0bf7c44d66999a94e724e177b8754a7529616fd078bd7d46efb256b504a5ad',
    ('D2', 9):
        'c08e570a987197938f34e130bd50dd9504881a2c9a6eaffc04633ba800a4c68c',
    ('D2', 10):
        '1be90fba42e8d9154c2aabb8fd286d4ffe6c12c8858a0d920a2c4ff9c765e3de',
    ('D2', 11):
        '74d0ddf217c9d8b46a4c746e4eded64b5dbbcd6be1b31f8163f3ba664ffc73b7',
    ('D2', 12):
        '96daefe9c9e8c4f60c097c70f90dfbafc66d4ba42e680fdecc951eb9a997cb38',
}


@pytest.mark.parametrize("fam", list(Family), ids=lambda f: f.value)
def test_root_system_tables_match_golden(fam):
    for n in range(MIN_N[fam], MAX_N + 1):
        assert _digest(AffineType(fam, n)) == \
            ROOT_SYSTEM_GOLDEN[(fam.value, n)], (fam.value, n)

"""A golden of COMB_k[lambda] on every order at rank 5 of the types with
a fork (D1, B1 and A2odd), and on 40 fixed orders of D1 at ranks 6 and
7.  For each (type, rank, colour) one sha256 covers
`comb_lambda(seq, k, lambda, 4).to_json()`, provenance included, over
those orders and lambda in {0, (1, ..., 1)}.  This reaches every case
of the choice between the singleton, fork pairs, box chains, walls and
the D1 rank-5 chains on orders the CLI golden does not visit."""

import hashlib
import itertools

import pytest

from wallcrystal.affine_data import parse_type
from wallcrystal.adapted_sequence import from_permutation
from wallcrystal.linear_forms import DominantWeight
from wallcrystal.wall_forms import comb_lambda

# (type, rank) -> every stride-th order of the lexicographic listing
STRIDE = {("D1", 5): 1, ("B1", 5): 1, ("A2odd", 5): 1, ("D1", 6): 18,
          ("D1", 7): 126}


def comb_digest(family, rank, k):
    X = parse_type(family, rank)
    lams = (DominantWeight.zero(rank), DominantWeight((1,) * rank))
    orders = list(itertools.permutations(range(1, rank + 1)))
    h = hashlib.sha256()
    for order in orders[::STRIDE[family, rank]]:
        seq = from_permutation(X, order)
        for lam in lams:
            h.update(comb_lambda(seq, k, lam, 4).to_json().encode())
    return h.hexdigest()


# (type, rank, colour) -> comb_digest, recorded before COMB_k[lambda] was
# decided by one rule on the cells beside T-bar_k's cell
GOLDEN = {
    ("D1", 5, 1):
        "43e330b34e7085e3ebc7cc58eb663a6ac4e61171d91606bc61a0018fc0cd74c3",
    ("D1", 5, 2):
        "3a66aeb569886c42d0a8ed417cea6379446d20f7d5132b117a2c1cc0cc84448b",
    ("D1", 5, 3):
        "967fc3c0ba078d0bfb524f1917f839c84e94cbd3faeee7e3f34b92cb102130e9",
    ("D1", 5, 4):
        "c7385ffcc6f7002baba722f960ee608321235c97b0e76667f68af86a3d8fda4e",
    ("D1", 5, 5):
        "9b37c570d605a907a887ac01079cd9cff7f310e32fb8733941a36e34d61582c2",
    ("B1", 5, 1):
        "9cda67e74afa3c9371ec3b79f1b63291a1f702a7f39d1502bb29f0853bf3c687",
    ("B1", 5, 2):
        "0dfdb8f5272c96ac46ca7b561cbe1ec34d628b2252c859805e527d3c79056f31",
    ("B1", 5, 3):
        "faa167a08b0b44cf5b6609b9513093c6d8bbb45190a0fc6375d95214d53c7dc2",
    ("B1", 5, 4):
        "8d3035c2d463a97bae5a5a7e9068b2a6e90308188914763710b07ca9cc7bc8ba",
    ("B1", 5, 5):
        "c45c041d3f5e1250778d1ac45001bb373a0f66f2a7764dfea22c8ba4390cb3b7",
    ("A2odd", 5, 1):
        "b8851788a07fcb85c29bcbb1a1fd811bc1fe7a29e808b7b526e519c01d8c38fd",
    ("A2odd", 5, 2):
        "8889621380477b0238ac0069d17bf579760b63d090bffff0c047f2b737f1b037",
    ("A2odd", 5, 3):
        "f70758ae43bb0c14fabcb4c133d091726fb134ed99df432bcde1077ab0478311",
    ("A2odd", 5, 4):
        "733fc0f0b059423f59d1ffb9e21c8e73208fae4e07f93c7abff2833c46c1d241",
    ("A2odd", 5, 5):
        "3d33cf5a324447e46a340d4a483977b881baea01d9ca2e8b40873929e10587eb",
    ("D1", 6, 1):
        "22360e166607eaab66d48228e65c4a517a39339b6daafb650667940fb75389fb",
    ("D1", 6, 2):
        "7ed78f9ede7d928ad73e6c9d083ab5381ccf90ed577826fe64ee49948baa59c5",
    ("D1", 6, 3):
        "e860a1f9fb02fdc4b7d1e89af2a52eb5d3c52d8f9e325a9f110643363b72198e",
    ("D1", 6, 4):
        "46fc073198cc9b2f46ce76ffc204f1f883a7170d9d86c62857bcea6d6f1e16c1",
    ("D1", 6, 5):
        "4f539a03522f990dff0d4ef93b749d634c9aeb8cb76d45b01e97981e79159e79",
    ("D1", 6, 6):
        "b855566ebc8b260505aed3f482a071e99a384beeaab883908a3e1d26ede2b7ee",
    ("D1", 7, 1):
        "6f0523691429396315c2fc364fec356c47d9152f9f2ae7eff8256868b28a5d68",
    ("D1", 7, 2):
        "e6e1ffa5677da7208fda75a2841b50218e48e3fd0fa8812e295bbeddd17651e3",
    ("D1", 7, 3):
        "fa902ff41b84ae851af2cb817b85544a43f8207fabdbe10a1978d253298baf57",
    ("D1", 7, 4):
        "37f1a90ff174d79ea853aafee9ce0ea98efcc15c440eacb73242653c4833aa58",
    ("D1", 7, 5):
        "ae1a231d633266bae77375c1634c0e43cbcd1a22d5bfe2f8f290d43d8a8e5242",
    ("D1", 7, 6):
        "a92e4ef019d4312dd9f518a068e0a567f6f4353b6fcbe6895c2f223cf6f9acdd",
    ("D1", 7, 7):
        "e1597918de18dfab51814568a505c38d3343dffc8e24dd57f3ae29786c18181f",
}


@pytest.mark.parametrize("family,rank,k", list(GOLDEN),
                         ids=lambda v: str(v))
def test_comb_lambda_golden(family, rank, k):
    assert comb_digest(family, rank, k) == GOLDEN[family, rank, k]

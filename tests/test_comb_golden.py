"""A golden of every COMB family the command line prints.

For each setting and every colour it runs `ineq blam` as text and as
JSON with provenance, at lambda = (0, ..., 0) and (1, ..., 1) with
`--blocks 4`, and `ineq binf` as JSON at s = 2, once with `--blocks 4`
and once with `--support-max 3n`.  One digest per setting covers the
exit code and the stdout sha256 of each of those commands.  The
settings are every order of A1, A2even, D2 and C1 at rank 3 and of B1
and A2odd at rank 4, one order of D1 at rank 6, and five orders of D1
at rank 5 that put 0 to 4 of colour 3's neighbours before it."""

import hashlib
import io
import itertools
import json
import re

import pytest

import wallcrystal.cli as cli

D1_RANK5_ORDERS = [(3, 1, 2, 4, 5), (1, 3, 2, 4, 5), (1, 2, 3, 4, 5),
                   (1, 2, 4, 3, 5), (1, 2, 4, 5, 3)]


def _settings():
    for family in ("A1", "A2even", "D2", "C1"):
        for order in itertools.permutations(range(1, 4)):
            yield family, 3, order
    for family in ("B1", "A2odd"):
        for order in itertools.permutations(range(1, 5)):
            yield family, 4, order
    yield "D1", 6, (6, 5, 4, 3, 2, 1)
    for order in D1_RANK5_ORDERS:
        yield "D1", 5, order


SETTINGS = [f"{family} {rank} {','.join(map(str, order))}"
            for family, rank, order in _settings()]


def _commands(setting):
    family, rank, order = setting.split()
    rank = int(rank)
    base = ("--type", family, "--rank", str(rank), "--order", order)
    for k in range(1, rank + 1):
        for lam in ("0", "1"):
            blam = ("ineq", "blam", *base, "--k", str(k),
                    "--lambda", ",".join([lam] * rank), "--blocks", "4")
            yield blam
            yield blam + ("--format", "json")
        binf = ("ineq", "binf", *base, "--k", str(k), "--format", "json",
                "--s", "2")
        yield binf + ("--blocks", "4")
        yield binf + ("--support-max", str(3 * rank))


def _run(argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


def comb_lines(setting):
    """One line per command: its argv, exit code and stdout sha256."""
    for argv in _commands(setting):
        code, text = _run(argv)
        digest = hashlib.sha256(text.encode()).hexdigest()
        yield f"{' '.join(argv)} exit={code} sha256={digest}"


def comb_digest(setting):
    return hashlib.sha256("\n".join(comb_lines(setting)).encode()).hexdigest()


# setting -> comb_digest, recorded before the COMB families were assembled
# through one wall walk
COMB_GOLDEN = {
    "A1 3 1,2,3":
        "5d7be804d2f0bd9363dad6b3575a1a74345c7df673ff28de36d07ddff8d219c2",
    "A1 3 1,3,2":
        "63fdd5073cff00d0924d39d53e9227d1183aa4354bca588d27db9752a3d05f8a",
    "A1 3 2,1,3":
        "b9b8e4813144c0a9598921083b24913a0a398f6c9b8f9ca24e910f39a709ed11",
    "A1 3 2,3,1":
        "c0a47db9a9e2f800693c02333330040bf82755fbe0ed6ddad708e993e5f261b4",
    "A1 3 3,1,2":
        "4e8bfdc241400153b3d56a5a646d18af3f19371eb7bd49f2d5f383c554a5ce77",
    "A1 3 3,2,1":
        "196f56025d349929cd47185ebfcba073f7611e21ae16a06f88f2b07ee343a77c",
    "A2even 3 1,2,3":
        "525109af6519d154e08eb25da20ac18c72f0e267921016f2d06e48e2eb337a93",
    "A2even 3 1,3,2":
        "fbae91530cf0362115f81d681d28d9a779752c491ce328020d0b32fe0434f222",
    "A2even 3 2,1,3":
        "bbbcf36230cb973fb06096eb97c3f66d4411fddb86d0b6f449a25ae18a25ef85",
    "A2even 3 2,3,1":
        "52a174d7f92f08b3527a201aa1da17c901abe54b6f042004a6035a4ade9a5919",
    "A2even 3 3,1,2":
        "294df7b7f4cba06d30ccf3d7d31e4acc562253660ca9b2c7ea3b25e9528f067d",
    "A2even 3 3,2,1":
        "ff8f167620b9fe84ffff2dce2b5bedc44963cae122e2240cfde0b062bf7f9d6c",
    "D2 3 1,2,3":
        "fd25caa585ea34b0f791cc5d27e05e579c9b04f2b5518e76d04fbf45b5631df3",
    "D2 3 1,3,2":
        "515c0c8bdc25f5e87a8fab3ea42db86986a2b192d614c87555433489f97079b9",
    "D2 3 2,1,3":
        "0e4d3c43e1502c9847dad68132e33dcda01199f5b3803e7039b87220fca658c2",
    "D2 3 2,3,1":
        "cafcaa3f170ebbd77a084140292d3fffa90874649e5c04fe63339555505ef3ae",
    "D2 3 3,1,2":
        "8b21ccf8210ff717fc943e4ffe25b5dc370530fc967f6f93dee1b103a26f8f01",
    "D2 3 3,2,1":
        "bfd40308a109c27abe99fb91fd7924009ba7b6b4a83208f3d90fb0c1c5480bec",
    "C1 3 1,2,3":
        "df3327026f92308827642a031a571fe2efcbcf32fc692d3e1d2bc17df6f56c9f",
    "C1 3 1,3,2":
        "402c379cec08b48946a98ccbc37cc899805549dca3168696b8e7463e532cf33e",
    "C1 3 2,1,3":
        "fb9939cc622b85c6fb1c8728f3d4e32437b374e505aa9eb726445c29552d1e48",
    "C1 3 2,3,1":
        "cfa5ca046930b75317f17250b37b43b0008832bdf9975683c69910935724881b",
    "C1 3 3,1,2":
        "ec5274625332257abc951d54c272a39a894d6fd4c904a7cccc1a62c424c7b2e9",
    "C1 3 3,2,1":
        "fe4f99563cd5528340d0b24facead6fe7e6e54f91e9cbf2b321cbadc8376efb8",
    "B1 4 1,2,3,4":
        "5257c55f527aed5b26cd9ebd3a808a858e6c07c8a300db9cd1b55ecf38df4adb",
    "B1 4 1,2,4,3":
        "0333341d9eb7335f2288e835faa4853b0a3e54e95d014bab3d845ed6244883d7",
    "B1 4 1,3,2,4":
        "4cdbccb5a13bc11dae5e3e221a378211dc076a43b7572852e2b331d6c36b6ff0",
    "B1 4 1,3,4,2":
        "e48f7aa917725aeadadf5d60fa3a9e206368b0f4976166e5e2b0ae2325476042",
    "B1 4 1,4,2,3":
        "f3fa7a59813a85bae68e31b9dbddee6969de3aa29ebfb30b9d84d32e3eeb0ac9",
    "B1 4 1,4,3,2":
        "189fab0b8dc166ceb7827dbc4ffdce8263145aef0c71d9ecd71e2d0c19723c82",
    "B1 4 2,1,3,4":
        "dc95215f7345e625562610f6868cadb857649366ece18034371e2c7570005de3",
    "B1 4 2,1,4,3":
        "3791becb0a0667a8d3118f6137f0c1d2f26cc18d64e668d74fec60de49870e96",
    "B1 4 2,3,1,4":
        "009a5ddfd09998a7c1d31fd9381caad438abc797d886840d85366eefee1fff86",
    "B1 4 2,3,4,1":
        "c855052bbe9eaa386f6ca93177da2aa0ef5afd7b04e2a861db378b6c2311d04b",
    "B1 4 2,4,1,3":
        "b402fecee8750d91a1763c2dc7ad47ee8582d6a68001fa33fb2a32b32c830364",
    "B1 4 2,4,3,1":
        "0c0138856adb11f2ec46c5aa1be819a823fd1f2043f9a2d04eea8afc2c956d36",
    "B1 4 3,1,2,4":
        "b800f93faf10757ed6eaec9bbd36963c7e305ae2760588cbaedd7dc113e4a323",
    "B1 4 3,1,4,2":
        "5570b396b78aace0b60f793bff8667946bf8d70b2c97ffa9a6733dd200fd7a47",
    "B1 4 3,2,1,4":
        "c1aebc88ed37c40d42c352c2f5a08a08d9969e5d5bf4c493db4198c9d1d81e8c",
    "B1 4 3,2,4,1":
        "3b7dae5d16c144d29d0fc165d2689ad36119780dd4aa862596b111ae0f299d2c",
    "B1 4 3,4,1,2":
        "d2db906be21ad7510a319c7856a2ed5b5e7d8fd4d2ec947ee36026a2303f7d00",
    "B1 4 3,4,2,1":
        "162f37a6e699cc637e0c06e3f5c04956abb5f13cad52eafa8972869b5892f3b2",
    "B1 4 4,1,2,3":
        "f5114668a30901b1aca99ac8dbf4890baf8a4a5870f0842df159b4f76467fe50",
    "B1 4 4,1,3,2":
        "06aa3f7f117998441f27fd8b99afbbe61a24e4f154d1bc470e4acbdaa3d825c9",
    "B1 4 4,2,1,3":
        "682257f3fee42a80fb9fc85c5dc62e4c267b18b36d4c6d8b8b441d1cd0c710fa",
    "B1 4 4,2,3,1":
        "8d5e32c70aa69842010e596319598680daa874eb03a5f21df1429e76afb4398d",
    "B1 4 4,3,1,2":
        "7ac2d2f89cae1d6cae5e8cce05b8b8da3826dd310ed762e6b95ce061c78959b6",
    "B1 4 4,3,2,1":
        "2a4c809c961b33992dec70fdcd825f85a92212b24e357e85c327839500dbee7d",
    "A2odd 4 1,2,3,4":
        "ca7cd2752ea195b38ef5db40ae3fa88e6f2f5fe1e7365b62b73fd11a7497c162",
    "A2odd 4 1,2,4,3":
        "d89b43abaaa91e2950d19fbd0dfe3601a424216a1b08e2b851cee39befa0b2e1",
    "A2odd 4 1,3,2,4":
        "9768939d793dd2f4c675b299a88142cb8deccee004586dfb9d29ac8cfa9e5fd3",
    "A2odd 4 1,3,4,2":
        "af30c5c3d6deb6aa41bf31c385fff8b435e7901d297da88d326e940d39360016",
    "A2odd 4 1,4,2,3":
        "c7ef653b5daa2de2a3e5b2ec9fabf5e04bad365ecc2f0bc7261bec520a2c36df",
    "A2odd 4 1,4,3,2":
        "87a7c9ae68b4838208ca6d6bb89439526c6768360807da0fe7422f47cb4afb76",
    "A2odd 4 2,1,3,4":
        "bbb521806a99b03a9e9c096e8cc61ea23fb10be33f19c4d82c00f274c8a1c9ef",
    "A2odd 4 2,1,4,3":
        "998252c578ffc9e34b2181fb5bb05ede9875822acdf9c8cbfcf8d256a772cb4a",
    "A2odd 4 2,3,1,4":
        "2e6fe1af2e7706fa832cf10829b9367df3e9183224693202708b1e1177cdf138",
    "A2odd 4 2,3,4,1":
        "f9ead9a995329c7c6d823815d9f245c46f7a507d9484ad211a977898c73aa0af",
    "A2odd 4 2,4,1,3":
        "f910bd3b95a249dd9cd170db8ec02b8088bd8d750697affe046b9e6050b7edf6",
    "A2odd 4 2,4,3,1":
        "affd55b92c36389de662f1fa6a2b420c3613a3129b56d2f67bf9aa3d1c4e1d52",
    "A2odd 4 3,1,2,4":
        "3f64ab79b10b06ef5a16b223f9eac936708e8dedf393c49d7f92c261dbf7a7ca",
    "A2odd 4 3,1,4,2":
        "28d885fe4f7b0d50f65d79aac84f9de79f04e47488057dd1f84ca377e93a021c",
    "A2odd 4 3,2,1,4":
        "4ce47a55677a54cc6b136d438348ca2a619430253b5983783287533983262d95",
    "A2odd 4 3,2,4,1":
        "45af8dab68a1fdebb861a71176cc6a5a800723e69c3c42945e87f20ada2c9926",
    "A2odd 4 3,4,1,2":
        "fda3572214cde48358429c7e7e614bd5255e3ff1afde15ac77462d4681e8ab74",
    "A2odd 4 3,4,2,1":
        "1d941daabc5fd1407f3148fe3feed899612521c6856c1343c9cd20a3fb198090",
    "A2odd 4 4,1,2,3":
        "6542e186a1d7c96dd78ec3ed442ab76d2b8949a361f07c68bbc6f0a29dc8c255",
    "A2odd 4 4,1,3,2":
        "f52625cd89985f2ad37bf03f49e8b31a2082bd1ac42156cda78570f7ab05d12f",
    "A2odd 4 4,2,1,3":
        "f3fc1ac1f4408a3911a053a35da6f926c31f9e9e83d68f791b6bbc51d18e16aa",
    "A2odd 4 4,2,3,1":
        "c7f39dffca0d2702b2d4bff52b342140d1649c0d87598c94143dbe218d3eb612",
    "A2odd 4 4,3,1,2":
        "275872d6c1a4a042c805b93cbd2ac5969e4b586e866eb4bdc3bca720e834e903",
    "A2odd 4 4,3,2,1":
        "f8733b8b1b14cb630d1ec64fc08540aed17b625d58ef1d67622ba10cf7ca97f6",
    "D1 6 6,5,4,3,2,1":
        "9dd0110a80bbce3737aa1db9949329a566ceb6043d7e7c243246f6abc4809e8b",
    "D1 5 3,1,2,4,5":
        "ff09e55441d08421556907eeabe19d14f52d2d21c9cb7cbd312d6e639a700bb0",
    "D1 5 1,3,2,4,5":
        "eea9af24b8132e064fe0df6ae4d6b2b851e42dbb3575d394860eccc7d1bdd5fb",
    "D1 5 1,2,3,4,5":
        "5a913fd44a646e9a8e4a3f4100345da81d9bc5ea7aef8a176959495c615d1de9",
    "D1 5 1,2,4,3,5":
        "f5c5b27e08cfee91dda934ef7926bdd988410eb8925fc268a1419fad7d96a428",
    "D1 5 1,2,4,5,3":
        "10055355834f19dd87d25f5097825b808be7a7ffdde945fb2e4b41f2e47bed61",
}


def test_the_golden_names_every_setting():
    assert sorted(COMB_GOLDEN) == sorted(SETTINGS)
    assert sum(1 for s in SETTINGS for _ in _commands(s)) == 1770


@pytest.mark.parametrize("setting", SETTINGS)
def test_comb_golden(setting):
    assert comb_digest(setting) == COMB_GOLDEN[setting]


def test_comb_golden_meets_every_provenance_kind():
    # the ineq blam JSON of a few settings names every family's provenance
    kinds = set()
    for setting in ("A1 3 1,2,3", "A1 3 1,3,2", "A2even 3 1,2,3",
                    "A2odd 4 1,3,2,4", *SETTINGS[-5:]):
        for argv in _commands(setting):
            if "blam" in argv and "json" in argv:
                code, text = _run(argv)
                assert code == 0, argv
                kinds |= {re.match(r"[a-z-]+|L", f["provenance"]).group()
                          for f in json.loads(text)["forms"]}
    assert kinds == {"L", "plain", "half", "tilde", "singleton", "pair",
                     "step", "three-up", "three-down"}

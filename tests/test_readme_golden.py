"""The commands README.md shows under "## Command line", each run through
cli.main and compared by exit code and stdout sha256 with a recorded
table, so a change that alters what they print shows here."""

import hashlib
import io
import pathlib
import re
import shlex

import wallcrystal.cli as cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# README command -> (exit code, stdout sha256)
README_GOLDEN = {
    "wallcrystal ineq binf --type D2 --rank 3 --order 3,2,1 --k 1 --s 3 --blocks 6":
        (0, "24730c4ba111a2d1dd70a0f794ac655f5c0be4ebe9049d1f477bbed54476cd49"),
    "wallcrystal ineq blam --type D2 --rank 3 --order 3,2,1 --k 2 --lambda 1,1,1 --format json --bare":
        (0, "4db46f0137fc29a7bd9c86907924a1d0a1c8399070dca02117b275b58a266a5d"),
    "wallcrystal epsstar --type D2 --rank 3 --order 3,2,1 --k 3 --elem 'a[1,3]=2'":
        (0, "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    "wallcrystal walls enum --type D2 --rank 3 --order 3,2,1 --k 1 --blocks 2":
        (0, "58546a8d38183dad8ef2de49a5689c330f17f57d47588b59148a50c47e262fc0"),
    "wallcrystal walls render --rank 3 --wall 'ground=pair:C1:k=1;sup=[1];cov=[1]'":
        (0, "0c933e676697ee46ed901d1e47291c62dfeea30cc7b37bea98c6eb6dfd1d8410"),
    "wallcrystal verify closure --type D2 --rank 3 --order 3,2,1":
        (0, "3d497c61db9222a4a3e5b8ec2c83f603043a1ef3c74684087804158ee1aeb178"),
    "wallcrystal verify props --type C1 --rank 3 --order 3,2,1 --blocks 5":
        (0, "30c2a07474e4dd1b4e119256ccc7a8e7385d5e0fbf837ffc2e0eb16c6f2d4993"),
    "wallcrystal verify crystal --type B1 --rank 4 --order 2,4,3,1 --samples 500":
        (0, "984b7855f2241c11aeeca94b572a863f5c97cb3e804001d1eae6d855f4c4d9f0"),
    "wallcrystal verify positivity --type D2 --rank 3 --order 3,2,1 --lambda 1,1,1":
        (0, "9468b8ba5acb92443c48f2717a3dec61a4d55e09d28c8de84129a532e22a7648"),
    "wallcrystal verify star --type D2 --rank 3 --order 3,2,1 --depth 4":
        (0, "4ce701f719af331c24b8ef350a277f9b0e8704a35a66a3ab9ef6aa94e30b4fc2"),
}


def readme_commands():
    """The `wallcrystal ...` lines of the sh block under "## Command
    line", with continued lines joined."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    block = block.replace("\\\n", " ")
    return [" ".join(line.split()) for line in block.splitlines()
            if line.startswith("wallcrystal ")]


def _run(command):
    out = io.StringIO()
    code = cli.main(shlex.split(command)[1:], out=out)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_readme_commands_match_the_golden():
    commands = readme_commands()
    assert len(commands) == 10
    missing = [c for c in commands if c not in README_GOLDEN]
    assert not missing, missing
    for command in commands:
        assert _run(command) == README_GOLDEN[command], command

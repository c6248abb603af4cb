"""Golden stdout: the order-diagram and verification commands print
exactly the bytes pinned here, by SHA-256, in text and structured form.

A change that keeps behaviour must leave these digests alone; a change
that means to alter this output updates them and says so.
"""

import hashlib

import pytest

from treemajor.cli import main

STDOUT_SHA256 = {
    "hasse 3 --format dot": "10c973786810b792efc6a0980f16ff314fed27c38cc52ba037e50555be7d07d4",
    "hasse 3 --format structured": "2aed3244e8146e762d445af15ae434840e93c2c97f93867688d9bad2b3d5b886",
    "hasse 4 --format dot": "437efba45af475288355223b9bef356d0f418090f5e6a73d2ca997d3562f057d",
    "hasse 4 --format structured": "4050bb65e7a46375510b971ab0bc66f649023ca39ea1b0a7f8b3e28148225ba8",
    "hasse 5 --format dot": "5463c8a96a9d5771d12a83b42c3c12e095d569de3b528a26829679d9b8a49665",
    "hasse 5 --format structured": "89d7f019b313832db48cb7eb141cedd2fdeae4b3742b18136e6e26134e9c5635",
    "hasse 6 --format dot": "84af7aabe893d2bc646821cbe32346201877f7e7c5f6256d921ec3e55a079b53",
    "hasse 6 --format structured": "39e90518ba6519ac67e53d99bddeacd3d2bd425f9e1b3ee612ca8be9a25613f7",
    "hasse 7 --format dot": "dfb25a647a3bd62cc4602811d69988f073946582247f971d8821b581bc22a8c9",
    "hasse 7 --format structured": "2e2c2429114a264463a21767711d27c36aaca8e8485e27bb3cd0f1a0e3ca57b6",
    "hasse 8 --format dot": "aaa706d7c87a6a9ab7ed67729f32ce1efc65a96ea9a17f0a63f1af655c9dc43c",
    "hasse 8 --format structured": "0311eb33dbfab2d928bd6c475ba6c4fac566a3cb98ddf607c301bc59e4a986cb",
    "hasse 9 --format dot": "cf5bf4dec5e03222050cec27ff5c42724b5e19746defedce0b8e2a4d090b79dc",
    "hasse 9 --format structured": "8f194451ba08c2b2945c423a2d3f286ebbc68ff1330177b003bae45bbd84300e",
    "hasse 10 --format dot": "de619a67f64ab05e9a3bf09700435558ef38d4fdf2ace300f50a819bcbf3ae96",
    "hasse 10 --format structured": "296b9982d16a313b8dd5d99b0027e42c8a474fbe3cc0ea0ff8fcd4e011cbe9a3",
    "hasse 11 --format dot": "c44e7de904a35402837f0eec731f817d79bd0aad83cf51e970aa6b552a3ee0f4",
    "hasse 11 --format structured": "7da63b80a478e8277ee511a148a20acf5ed1fc29eb4bc519cf3858d08765c383",
    "hasse 12 --format dot": "c666f3c1404146046e90e5b9f29d72ddeb463107e0a582620cee1c6a0868d406",
    "hasse 12 --format structured": "7e31478df778abe36e86c0566a5b349e32fc03e3bdfe05375739f525e0eca60f",
    "verify 4 --all --format text": "9005c53c9ed3b41b733fcdd930f3e9c104bfd0ece5f5e760816f76e00ea598a9",
    "verify 4 --all --format structured": "1f7e16703377c691c5820325a447900d0ad2d1cbfb7e66a18c718c0549459aa0",
    "verify 5 --all --format text": "dc6f40dcdd110b053c3359953e81f5427deffcc02145367d99c0596d3b086f10",
    "verify 5 --all --format structured": "869a36fe485b740714c1e1d884fec16324517efa1862d45edeac55d06c8e4b3a",
    "verify 6 --all --format text": "6c5538bf5f95ed7410cf0f9ceb9434627cd82a129a28473de701e2dbca086ff0",
    "verify 6 --all --format structured": "de728360bf85392aee2846051763e792cbe55aba0052cdff6b59a3abaada81c9",
    "verify 7 --all --format text": "46f03124c8c492dc7469c86aa5f2adad3e9e878702a38e1e9f41d56879c78af3",
    "verify 7 --all --format structured": "def38dd28e9df4f86fcc430af50437eb70785d0a4e7eb0df89b5d6862e604d44",
    "verify 8 --all --format text": "cad9364638b357a929690d86cf610e412d03addb9b8bdd1ccfa68680cfc00f07",
    "verify 8 --all --format structured": "dcf2688040fef196b3569752869b6257cfe78135f5f2d0808c9bb86a9ac0c05f",
    "verify 9 --all --format text": "3f4d8dd0e8cbfc8f90cbd1f30011eb646b252d4dd764710056815d59407c8b2a",
    "verify 9 --all --format structured": "f9505ff5fb37a461d3ce0b4f1d6b386a795a1ba204046865d90e64c348163cdc",
    "verify 10 --all --format text": "6a2c1796d608243e8750360aec6dd8e0222bfe523be76dc56119342e6182ed76",
    "verify 10 --all --format structured": "def0ab940c4f2178a3e979693b75272e8caec51797fe5ff53681788447082f22",
    "verify 11 --all --format text": "fdb2f2c24296b9370aaea095cd70ee2e4c13ad09b3af79a20d5dd3f09450db0f",
    "verify 11 --all --format structured": "b9af180bcbc21ba3c551f8320f91049a603fb3f909f4440a9fe8305a007abf27",
    "verify 12 --all --format text": "b59e859133c22693aa8380b8367ab1241daa27daf767c5da1c2a6e8f72ac7d1a",
    "verify 12 --all --format structured": "cc422eeb1d2316604111f5f3cb2ca08ea4d2aade7f35f823d83de93ad07485eb",
}


@pytest.mark.parametrize("command", list(STDOUT_SHA256))
def test_stdout_matches_digest(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command]

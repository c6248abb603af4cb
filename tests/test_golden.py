"""Golden stdout: the order-diagram, verification, enumeration and
realization commands print exactly the bytes pinned here, by SHA-256, in
each of their output forms.  Two more digests pin a plan replay from a
random tree, which the chain-sourced realizations never exercise, and the
successor codes of every class that the closure walks read.  The
reachability answers are pinned by every certificate for every class and
census target, by every move trace from each class and a relabelled copy
of it, by certificates from relabelled sources with the memo cold and
warm, and by the theorem pass and unreachable pairs; one
more digest pins the sampled graph suite.

A change that keeps behaviour must leave these digests alone; a change
that means to alter this output updates them and says so.
"""

import hashlib
import json
import random

import pytest

from treemajor import (
    ComparisonResult,
    Tree,
    certify_reachability,
    check_certificate,
    compare,
    delta_census,
    delta_sequence,
    enumerate_trees,
    find_move_trace,
    find_unreachable_pair,
    plan_transfers,
    replay_plan_on_tree,
    standard_graph_suite,
    star,
    tree_from_prufer,
    verify_majorization_reachability,
)
from treemajor import verify
from treemajor.cli import main
from treemajor.trees import successor_codes

_REACHABLE = (ComparisonResult.EQUAL, ComparisonResult.STRICTLY_BELOW)

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
    "enumerate 1 --format text": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "enumerate 1 --format structured": "1375cb790281a2334fa26800d7663d35dd7838a697d80f263384fc9bf80d8d73",
    "enumerate 2 --format text": "1e7a4f32fb9185df1c6fd771a5cf931f03681ea1d0ee5e4efb66e78a58277eeb",
    "enumerate 2 --format structured": "c196faeb357eb83f6efb42c8f4a657c6d6193158790bb29ff3e8f32e149c5ad9",
    "enumerate 3 --format text": "83d7f914c9996f1148ceff117738d6400b757f76e2691ca04ce3a1b32f7c3234",
    "enumerate 3 --format structured": "285345133112db31d9251fd0b346927e40e72a7a03568785c7ef2fa3ba1896f9",
    "enumerate 4 --format text": "01de9c4473498df07c0e5b32c9610c5a05b1c7ca6b47bde722c0595f2fc3edc0",
    "enumerate 4 --format structured": "b00a2f4d586768eed709dbe8a2c1f852a666f4d13eb1e8dbfe5bb0cc25b0caf9",
    "enumerate 5 --format text": "968f9fe4cca30186a1b6b8b9e5dbd8bbaa8f667452c65699edd978d721576cf2",
    "enumerate 5 --format structured": "dce4b0d7f441db16f48164cc0b8ae310c1916d1e92160bde484571cc2473c687",
    "enumerate 6 --format text": "de5afed205f48181fbfc2d2e0926325c404d63f2dd28f902e80ab1368b4dc4a1",
    "enumerate 6 --format structured": "d9ee3d7e0b1c4d735800a0d17ec30fd33176d5aff5654156a7ef06264c00bfed",
    "enumerate 7 --format text": "1830e8ba0d4698b69e58e8b0b195f8abeb9cb440640c783c0e20728e67929920",
    "enumerate 7 --format structured": "e9849afa27b50d6449f80033212ea5ba21fd9bfa9ec33a9fbbbf9598b9bc93cc",
    "enumerate 8 --format text": "8eb934a9134f119791d9e6a70c44d2ad851de42393d3bbcdc4603aaa356b9bf9",
    "enumerate 8 --format structured": "f1590bc2b9cec136827465085aa1f663a64476679a72ea1e925af2671b19c2fb",
    "enumerate 9 --format text": "f359fa478647224cd2ba440d3b565367ff9af6f3e88d4dc08b9503716d3fdf39",
    "enumerate 9 --format structured": "498992d980567babf774396397371622b1feaf44c869f1afba41382934f6ffdd",
    "enumerate 10 --format text": "0b766f8e9bafba663978b36025e12c9ecd2929903352e62f8f651c8bd6d89db4",
    "enumerate 10 --format structured": "98ea3a7862e2a111055684ad4527871d6917eafb223bbc6b8dae6f1cc7349b70",
    "enumerate 11 --format text": "828a5858822cab63b181985b934c4cdef6e9f3025af5d658114514b4250a3754",
    "enumerate 11 --format structured": "78e8377328de7f660ec286d47b2c47d7fe127a3eb5bc6612f02bd8c93865508c",
    "enumerate 12 --format text": "9636aee6848ebbe2886d5e580f7e31bedf76f0115100cea0a03dbea68f9d681f",
    "enumerate 12 --format structured": "da53b68c63465d6d42deccaf43abfc0f59a8dd145a52d49db373f9ab813c9806",
    "realize 7,1,1,1,1,1,1,1 --method chain --format text": "9a636db22fa724735d5997171554439d51a0250afb7ddaa0256c25a77373785b",
    "realize 7,1,1,1,1,1,1,1 --method chain --format structured": "92f5b72c71d334e61b564d592db6316177641e1b71500c09c4db47cd896f284f",
    "realize 7,1,1,1,1,1,1,1 --method chain --format dot": "197cb642b857c5c9fe65f63bb1eaec38b16618a5a6912a3e3c959447ae24f749",
    "realize 7,1,1,1,1,1,1,1 --method direct --format text": "fd7f0519939f1adca2f2dafe0b16da11b6ba80efd83b35f65ca13dde06872eca",
    "realize 7,1,1,1,1,1,1,1 --method direct --format structured": "68d8d9b1f00aa328aee94f19458c6538afb14f243524269d8b130a64415b342a",
    "realize 7,1,1,1,1,1,1,1 --method direct --format dot": "c816759af3bd604ce21a32e7c1e9ec7a4abe6371b3d42566875ef1f2bc7b0436",
    "realize 3,3,3,1,1,1,1,1 --method chain --format text": "665df1a4abb7b9de33ccf6d2c279d70f15665e8ce4d9319bef774cdd420f67ed",
    "realize 3,3,3,1,1,1,1,1 --method chain --format structured": "21f91ab3777e8013b78b6f378bd78502d435e67a6e7ebbfe9301f69faeaba0a2",
    "realize 3,3,3,1,1,1,1,1 --method chain --format dot": "3bb1b844f3ca01733a1f40774ac1446a943c9710c21deff3b79688ffd4db76d3",
    "realize 3,3,3,1,1,1,1,1 --method direct --format text": "7b803a13e1a8be240e6b8d6c32306100544a6184ae70ad94854a32bfeba67059",
    "realize 3,3,3,1,1,1,1,1 --method direct --format structured": "f42850b652819b899d7f4c89007f34b917c45b0fc052ca43952a6ec38f167ff8",
    "realize 3,3,3,1,1,1,1,1 --method direct --format dot": "add9db2c6cd7c84e9c151b1661b4cb69467d481b0ca8bc71c6bdee1e887a960a",
    "realize 5,2,2,1,1,1,1,1 --method chain --format text": "ec2c6827bb285a5617204b53884cec6ecc18bd4c564570bfd8620489a9e9a56a",
    "realize 5,2,2,1,1,1,1,1 --method chain --format structured": "ac2f5ba744a18f38d4834064e3c83de24ec60dc296020d7909453a84517ac021",
    "realize 5,2,2,1,1,1,1,1 --method chain --format dot": "5f9912ec34070e7e419ceccb13680a9d69d9e175a9069aa38924473e4ea8fdb9",
    "realize 5,2,2,1,1,1,1,1 --method direct --format text": "b45b589d5d7a4adbcb3cbe8f63e0aa0f3c1489d6d5dccd5db3402b3d9ff0b31d",
    "realize 5,2,2,1,1,1,1,1 --method direct --format structured": "a9c817c633debe2fb85a5a2cad1b9033492dcef415a28fcd87e1f41caec52d67",
    "realize 5,2,2,1,1,1,1,1 --method direct --format dot": "d573f114eedbd6ebf53aecab6c7774e04cd407032ebe430d515587bec6df54a5",
    "realize 4,3,3,2,1,1,1,1,1,1 --method chain --format text": "71049cd41f10c5c6455a57aefedac0407af1472991c4be1ae2e490f2826b7a8f",
    "realize 4,3,3,2,1,1,1,1,1,1 --method chain --format structured": "6e1c88aefe1f3b4d1999a47e958989c2ec62db058a7379a29bddc32adea2a757",
    "realize 4,3,3,2,1,1,1,1,1,1 --method chain --format dot": "880fa6fcb9fc44dbe068c9ed5515d155591f348f766a3613041c1b0f2928367e",
    "realize 4,3,3,2,1,1,1,1,1,1 --method direct --format text": "4ef4f0cd3ad7d0c4433d8d7b4b771e79197fd77f70a5742e21b11fcbf53cfd97",
    "realize 4,3,3,2,1,1,1,1,1,1 --method direct --format structured": "fffa3e9174fb11f6f8ddf9e5d71f47f63c645e1853f30dfb935a691037456266",
    "realize 4,3,3,2,1,1,1,1,1,1 --method direct --format dot": "ef44f8f2fd37144aa26e0303e66d4cd444b72071ca448cb980759081df4d7ee3",
}


@pytest.mark.parametrize("command", list(STDOUT_SHA256))
def test_stdout_matches_digest(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command]


def test_replay_from_a_uniform_tree_matches_digest():
    # 949 of the 1,991 steps move a branch to a receiver that is not the
    # donor's neighbour; every receiver in the realize digests above is one
    n = 2000
    rng = random.Random(n)
    t = tree_from_prufer([rng.randrange(n) for _ in range(n - 2)])
    trace = replay_plan_on_tree(t, plan_transfers(delta_sequence(t), delta_sequence(star(n))))
    assert len(trace.moves) == 1991
    pinned = json.dumps([trace.moves, trace.final.sorted_edges()]).encode()
    assert (
        hashlib.sha256(pinned).hexdigest()
        == "4e4b5800bc94a747b287dbe359c0121bcc583786548fae5f596d73674d9c27bc"
    )


def test_successor_codes_match_digest():
    # the sorted successor codes of every class with n <= 11: the closure
    # walks and the theorem pass read nothing else of a class's moves
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 12):
        for t in enumerate_trees(n):
            codes = sorted(successor_codes(t))
            count += len(codes)
            digest.update((repr(codes) + "\n").encode())
    assert count == 3919
    assert (
        digest.hexdigest()
        == "18c7e9898129ed3ce4ea25e992921ea3d90a9306bc187a5f4e5ccefcf6b4dbad"
    )


def test_certificates_match_digest():
    # the repr and verdict of certify_reachability for every class and
    # every census target, n = 2..9, in enumeration then census order
    digest = hashlib.sha256()
    count = 0
    for n in range(2, 10):
        census = delta_census(n)
        for t in enumerate_trees(n):
            for target in census:
                cert = certify_reachability(t, target)
                digest.update((repr(cert) + repr(check_certificate(cert)) + "\n").encode())
                count += 1
    assert count == 1080
    assert (
        digest.hexdigest()
        == "12952fe41be19e3bac7bfa447567397f4728e2feb3813ee69b120a579870fe5c"
    )


def test_move_traces_match_digest():
    # the repr of find_move_trace from every class and a seeded relabelled
    # copy of it, whose moves come in another order, to every census
    # target, n = 2..9
    digest = hashlib.sha256()
    count = 0
    for n in range(2, 10):
        rng = random.Random(n)
        census = delta_census(n)
        for rep in enumerate_trees(n):
            perm = list(range(n))
            rng.shuffle(perm)
            relabelled = Tree(n, [(perm[u], perm[v]) for u, v in rep.sorted_edges()])
            for t in (rep, relabelled):
                for target in census:
                    digest.update((repr(find_move_trace(t, target)) + "\n").encode())
                    count += 1
    assert count == 2160
    assert (
        digest.hexdigest()
        == "a9686b662dee99a6c7b6043e6b70f6f6b6b15b858acb81b1d24a740c575af265"
    )


@pytest.mark.parametrize("memo", ["cleared", "after the theorem pass"])
def test_certificates_from_relabelled_sources_match_digest(memo):
    # every class at n = 8..10, relabelled, to the middle target of each
    # kind (reachable, unreachable) in census order, on a cleared memo and
    # on one the theorem pass filled
    verify._classes.cache_clear()
    digest = hashlib.sha256()
    count = 0
    for n in range(8, 11):
        if memo != "cleared":
            verify_majorization_reachability(n)
        rng = random.Random(n)
        census = delta_census(n)
        for t in enumerate_trees(n):
            base = delta_sequence(t)
            reach = [s for s in census if compare(base, s) in _REACHABLE]
            unreach = [s for s in census if compare(base, s) not in _REACHABLE]
            perm = list(range(n))
            rng.shuffle(perm)
            source = Tree(n, [(perm[u], perm[v]) for u, v in t.sorted_edges()])
            for pool in (reach, unreach):
                if pool:
                    cert = certify_reachability(source, pool[len(pool) // 2])
                    digest.update((repr(cert) + repr(check_certificate(cert)) + "\n").encode())
                    count += 1
    assert count == 349
    assert (
        digest.hexdigest()
        == "993b1e897331b144a3ba2198f722b3b47deb95b273b09148a2b1f95b4542eca8"
    )


def test_graph_suite_matches_digest():
    # the sampled graphs' edges, n = 3..28, for three seeds
    digest = hashlib.sha256()
    for n in range(3, 29):
        for seed in (0, 7, 1905):
            for g in standard_graph_suite(n, 100, seed):
                digest.update((repr(g.sorted_edges()) + "\n").encode())
    assert (
        digest.hexdigest()
        == "4dfad2fbc54e4ff68a814a3d4582245d863a2cb1f72b5c345ef4c1c098eab47e"
    )


def test_theorem_and_unreachable_pairs_match_digest():
    # the theorem pass for n = 2..12, then find_unreachable_pair for every
    # strict census pair at n = 7..9 in nested census order
    digest = hashlib.sha256()
    for n in range(2, 13):
        digest.update((repr(verify_majorization_reachability(n)) + "\n").encode())
    count = 0
    for n in range(7, 10):
        census = delta_census(n)
        for a in census:
            for b in census:
                if compare(a, b) is ComparisonResult.STRICTLY_BELOW:
                    digest.update((repr(find_unreachable_pair(n, a, b)) + "\n").encode())
                    count += 1
    assert count == 175
    assert (
        digest.hexdigest()
        == "7cce49cd14b16ce49c328337e51016c6f39f0a6d297556f6eaf2d01cb21e9579"
    )

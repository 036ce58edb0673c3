"""Certificate serialization, schema validation, and tamper rejection."""

import copy
import dataclasses
import json

import pytest

from segredim.cli import main
from segredim.ffrank import DEFAULT_PRIME, MAX_PRIME, terracini_oracle
from segredim.formats import Statement, is_subabundant, parse_statement
from segredim.induction import (
    Certificate,
    CertificateFormatError,
    CertNode,
    VerificationError,
    is_valid,
    prove,
    rules,
)
from segredim.induction import certificate as cert_mod
import segredim.induction.verify as verify_mod
from segredim.induction.verify import verify


def root_index(doc: dict) -> int:
    return len(doc["nodes"]) - 1


def witness_index(doc: dict) -> int:
    """The first witness node; list order visits leaves left to right."""
    return next(i for i, n in enumerate(doc["nodes"]) if "witness" in n)


def parent_index(doc: dict, child: int) -> int:
    return next(i for i, n in enumerate(doc["nodes"])
                if child in n.get("children", []))


def prune(doc: dict) -> dict:
    """Drop the nodes the root no longer reaches and renumber the rest."""
    nodes = doc["nodes"]
    keep, stack = set(), [len(nodes) - 1]
    while stack:
        i = stack.pop()
        if i not in keep:
            keep.add(i)
            stack.extend(nodes[i].get("children", []))
    new = {old: pos for pos, old in enumerate(sorted(keep))}
    out = []
    for old in sorted(keep):
        node = copy.deepcopy(nodes[old])
        if "children" in node:
            node["children"] = [new[c] for c in node["children"]]
        out.append(node)
    return {**doc, "nodes": out}


def node_record(node: CertNode) -> dict:
    return node.record([])


@pytest.fixture(scope="module")
def true_cert_doc():
    v = prove("T(3,3,3;6)")
    assert v.status is True
    return json.loads(v.certificate.dumps())


@pytest.fixture(scope="module")
def false_cert_doc():
    v = prove("T(2,3,3;5)")
    assert v.status is False
    return json.loads(v.certificate.dumps())


@pytest.fixture(scope="module")
def drop_cert_doc():
    # drop_zero_factor and drop_conditions nodes over split nodes, with
    # three positive factors so that the two_factor leaf does not settle it
    v = prove("T(0,2,3,3;5;4,0,0,0)")
    assert v.status is True
    return json.loads(v.certificate.dumps())


class TestSerialization:
    def test_round_trip_preserves_tree(self, true_cert_doc):
        cert = Certificate.from_json(true_cert_doc)
        again = json.loads(cert.dumps())
        assert again == true_cert_doc
        assert Certificate.from_json(again).root.digest == cert.root.digest

    def test_version_field(self, true_cert_doc):
        assert true_cert_doc["version"] == "cert-v2"
        doc = copy.deepcopy(true_cert_doc)
        doc["version"] = "cert-v1"
        with pytest.raises(CertificateFormatError,
                           match="unsupported certificate version"):
            Certificate.from_json(doc)

    def test_cert_v1_tree_rejected(self):
        doc = {"version": "cert-v1", "statement": "T(3,3,2;5)", "verdict": False,
               "node": {"kind": "table_false", "statement": "T(3,3,2;5)",
                        "side_conditions": {"actual_affine_dim": 44},
                        "table_id": "family:2,3,3"}}
        with pytest.raises(CertificateFormatError,
                           match="unsupported certificate version 'cert-v1'"):
            verify(doc)

    def test_missing_fields_rejected(self, true_cert_doc):
        for field in ("statement", "verdict", "nodes"):
            doc = copy.deepcopy(true_cert_doc)
            del doc[field]
            with pytest.raises(CertificateFormatError):
                Certificate.from_json(doc)

    def test_non_boolean_verdict_rejected(self, true_cert_doc):
        doc = copy.deepcopy(true_cert_doc)
        doc["verdict"] = "yes"
        with pytest.raises(CertificateFormatError):
            Certificate.from_json(doc)

    def test_unknown_kind_rejected(self, true_cert_doc):
        doc = copy.deepcopy(true_cert_doc)
        doc["nodes"][-1]["kind"] = "majority_vote"
        with pytest.raises(CertificateFormatError, match="node 5: unknown"):
            Certificate.from_json(doc)

    def test_leaf_counts_and_max_cols(self, true_cert_doc):
        cert = Certificate.from_json(true_cert_doc)
        counts = cert.leaf_counts()
        assert sum(counts.values()) >= 1
        assert set(counts) <= cert_mod.ALL_KINDS
        assert cert.max_oracle_cols() <= 64

    def test_every_node_carries_its_statement(self, true_cert_doc):
        cert = Certificate.from_json(true_cert_doc)
        for node in cert.nodes:
            assert node.statement is not None

    def test_each_node_once_children_first(self, true_cert_doc):
        nodes = true_cert_doc["nodes"]
        statements = [n["statement"] for n in nodes]
        assert len(statements) == len(set(statements))
        for pos, node in enumerate(nodes):
            assert all(c < pos for c in node.get("children", []))
        # the expanded tree has more leaves than the DAG has nodes
        cert = Certificate.from_json(true_cert_doc)
        assert sum(cert.leaf_counts().values()) > len(nodes)

    def test_digest_is_a_merkle_hash(self, true_cert_doc):
        cert = Certificate.from_json(true_cert_doc)
        doc = copy.deepcopy(true_cert_doc)
        doc["nodes"][witness_index(doc)]["witness"]["seed"] += 1
        edited = Certificate.from_json(doc)
        assert edited.root.digest != cert.root.digest
        # the witness's parent and the root change, the sibling leaf not
        assert edited.nodes[2].digest == cert.nodes[2].digest

    def test_digest_ignores_node_order(self, drop_cert_doc):
        # nodes 0 and 1 are both leaves; swapping them is another valid order
        doc = copy.deepcopy(drop_cert_doc)
        nodes = doc["nodes"]
        assert "children" not in nodes[0] and "children" not in nodes[1]
        nodes[0], nodes[1] = nodes[1], nodes[0]
        swap = {0: 1, 1: 0}
        for node in nodes:
            if "children" in node:
                node["children"] = [swap.get(c, c) for c in node["children"]]
        cert = Certificate.from_json(doc)
        assert verify(cert)
        assert cert.root.digest == Certificate.from_json(drop_cert_doc).root.digest
        # errors name the node by its index in this file, not in dumps()
        assert nodes[0]["kind"] == "oracle"
        nodes[0]["witness"]["rank"] -= 1
        with pytest.raises(VerificationError) as info:
            verify(doc)
        assert info.value.path == 0


class TestNodeListRejection:
    """The loader accepts only lists whose children point back, where every
    node but the root is used, and where no node repeats."""

    def check_format_error(self, doc, match):
        with pytest.raises(CertificateFormatError, match=match):
            Certificate.from_json(doc)
        assert not is_valid(doc)

    @pytest.mark.parametrize("refs", [[5, 5], [4, 6], [4, 99], [4, -1],
                                      [4, True], [4, 4.0], [4, "4"]])
    def test_root_child_index_must_be_earlier(self, true_cert_doc, refs):
        # 5 is the root itself, 6 and 99 are out of range, -1 would index
        # from the end
        doc = copy.deepcopy(true_cert_doc)
        doc["nodes"][-1]["children"] = refs
        self.check_format_error(doc, "node 5: children")

    def test_cycle_rejected(self, true_cert_doc):
        # node 1 points forward at node 3, which points back at it
        doc = copy.deepcopy(true_cert_doc)
        assert doc["nodes"][3]["children"] == [2, 0]
        doc["nodes"][1]["children"] = [3, 0]
        doc["nodes"][3]["children"] = [2, 1]
        self.check_format_error(doc, "node 1: children")

    def test_children_must_be_a_list(self, true_cert_doc):
        doc = copy.deepcopy(true_cert_doc)
        doc["nodes"][-1]["children"] = {"0": 4}
        self.check_format_error(doc, "node 5: children")

    def test_unreachable_node(self, true_cert_doc):
        doc = copy.deepcopy(true_cert_doc)
        stray = node_record(CertNode(cert_mod.TRIVIAL,
                                     parse_statement("T(7;40)"), reason="one_factor"))
        doc["nodes"].insert(0, stray)
        for node in doc["nodes"][1:]:
            if "children" in node:
                node["children"] = [c + 1 for c in node["children"]]
        assert verify(prune(doc))
        self.check_format_error(doc, "node 0 is not a child of any later node")

    def test_duplicated_node(self, true_cert_doc):
        # a second copy of node 0, used by node 1 in place of the first
        doc = copy.deepcopy(true_cert_doc)
        doc["nodes"].insert(1, copy.deepcopy(doc["nodes"][0]))
        for node in doc["nodes"][2:]:
            if "children" in node:
                node["children"] = [c + 1 if c > 0 else c
                                    for c in node["children"]]
        assert doc["nodes"][2]["children"] == [0, 0]
        doc["nodes"][2]["children"] = [0, 1]
        self.check_format_error(doc, "node 1 duplicates node 0")

    @pytest.mark.parametrize("nodes", [[], {}, None])
    def test_empty_or_non_list_nodes(self, true_cert_doc, nodes):
        doc = copy.deepcopy(true_cert_doc)
        doc["nodes"] = nodes
        self.check_format_error(doc, "nodes must be a non-empty list")

    def test_stored_digests_are_not_read(self, true_cert_doc):
        # a stray digest field changes nothing: digests come from content
        doc = copy.deepcopy(true_cert_doc)
        doc["nodes"][0]["digest"] = "0" * 64
        assert (Certificate.from_json(doc).root.digest
                == Certificate.from_json(true_cert_doc).root.digest)


class TestTamperRejection:
    def check_rejected(self, doc, at=None):
        """Rejected; with `at`, by the verifier at node index `at`."""
        if at is None:
            with pytest.raises((VerificationError, CertificateFormatError)):
                verify(doc)
            return
        with pytest.raises(VerificationError) as info:
            verify(doc)
        assert info.value.path == at, info.value

    def test_honest_certs_verify(self, true_cert_doc, false_cert_doc,
                                 drop_cert_doc):
        assert verify(true_cert_doc) is True
        assert verify(false_cert_doc) is True
        assert verify(drop_cert_doc) is True

    def test_flipped_verdict(self, true_cert_doc, false_cert_doc):
        doc = copy.deepcopy(true_cert_doc)
        doc["verdict"] = False
        self.check_rejected(doc, at=5)
        doc = copy.deepcopy(false_cert_doc)
        doc["verdict"] = True
        self.check_rejected(doc, at=0)

    def test_swapped_root_statement(self, true_cert_doc):
        doc = copy.deepcopy(true_cert_doc)
        doc["statement"] = "T(3,3,3;9)"
        with pytest.raises(VerificationError, match="certificate claims") as info:
            verify(doc)
        assert info.value.path == 5

    def test_each_split_side_condition_edit(self, true_cert_doc):
        sc = true_cert_doc["nodes"][-1]["side_conditions"]
        assert {"slot", "n_parts", "s_parts", "a_parts"} <= set(sc)
        # Rotating the slot is omitted: on a symmetric format the rebuilt
        # children are canonically identical, so the proof stays valid.
        edits = []
        edits.append(lambda d: d["n_parts"].__setitem__(0, sc["n_parts"][0] + 1))
        edits.append(lambda d: d["s_parts"].__setitem__(0, sc["s_parts"][0] + 1))
        edits.append(lambda d: d["s_parts"].__setitem__(1, sc["s_parts"][1] - 1))
        edits.append(lambda d: d["a_parts"][0].__setitem__(1, 9))
        for edit in edits:
            doc = copy.deepcopy(true_cert_doc)
            edit(doc["nodes"][-1]["side_conditions"])
            self.check_rejected(doc, at=5)

    def test_witness_field_edits(self, true_cert_doc):
        at = witness_index(true_cert_doc)
        for field, delta in [("rank", 1), ("rank", -1), ("target", -1),
                             ("rows", 2), ("cols", 1), ("prime", 1)]:
            doc = copy.deepcopy(true_cert_doc)
            doc["nodes"][at]["witness"][field] += delta
            self.check_rejected(doc, at=at)

    def test_leaf_statement_reroute(self, true_cert_doc):
        # editing only the statement breaks the leaf's own witness, and the
        # leaf is checked before its parent
        doc = copy.deepcopy(true_cert_doc)
        at = witness_index(doc)
        doc["nodes"][at]["statement"] = "T(1,1,1;2)"
        self.check_rejected(doc, at=at)

    def test_leaf_substitution_fails_at_the_parent(self, true_cert_doc):
        # an honest proof of another statement in the leaf's place: the
        # leaf checks out, its parent's split arithmetic does not
        doc = copy.deepcopy(true_cert_doc)
        at = witness_index(doc)
        doc["nodes"][at] = node_record(oracle_leaf("T(1,1,1;2)"))
        with pytest.raises(VerificationError, match="split arithmetic gives") as info:
            verify(doc)
        assert info.value.path == parent_index(doc, at)

    def test_false_leaf_on_true_statement(self, false_cert_doc):
        doc = copy.deepcopy(false_cert_doc)
        doc["statement"] = "T(3,3,3;6)"
        doc["nodes"][0]["statement"] = "T(3,3,3;6)"
        self.check_rejected(doc, at=0)

    def test_wrong_table_id(self, false_cert_doc):
        doc = copy.deepcopy(false_cert_doc)
        doc["nodes"][0]["table_id"] = "family:1,1,n,n"
        self.check_rejected(doc, at=0)

    @pytest.mark.parametrize("statement,field,bad", [
        ("T(2,3,3;5)", "actual_affine_dim", 47),
        ("T(2,3,3;5)", "actual_affine_dim", 44.0),
        ("T(1,1,9,0;3;0,0,0,0)", "expected", 10),
        ("T(1,1,3,0;1;0,0,2,1)", "lhs", 5),
        ("T(1,1,3,0;1;0,0,2,1)", "roles", [2, 1, 0]),
    ])
    def test_falsity_side_condition_edit(self, statement, field, bad):
        # every number a falsity leaf carries is the catalog's
        doc = json.loads(prove(statement).certificate.dumps())
        assert verify(doc)
        sc = doc["nodes"][0]["side_conditions"]
        assert json.dumps(sc[field]) != json.dumps(bad)
        honest = sc[field]
        sc[field] = bad
        with pytest.raises(VerificationError,
                           match="side_conditions") as info:
            verify(doc)
        assert info.value.path == 0
        del sc[field]
        self.check_rejected(doc, at=0)
        sc[field] = honest
        sc["extra"] = 1
        self.check_rejected(doc, at=0)

    def test_dropped_count_edit(self, drop_cert_doc):
        # a drop_conditions node's count must be the fibers its slot carries
        false_doc = json.loads(prove("T(0,2,3,3;5;2,0,0,0)").certificate.dumps())
        for honest in (drop_cert_doc, false_doc):
            drops = [i for i, n in enumerate(honest["nodes"])
                     if n["kind"] == "drop_conditions"]
            assert drops
            for at in drops:
                sc = honest["nodes"][at]["side_conditions"]
                for bad in (99, sc["dropped"] + 1, sc["dropped"] - 1):
                    doc = copy.deepcopy(honest)
                    doc["nodes"][at]["side_conditions"]["dropped"] = bad
                    with pytest.raises(VerificationError,
                                       match="its rule gives") as info:
                        verify(doc)
                    assert info.value.path == at
                for bad in (float(sc["dropped"]), None, str(sc["dropped"])):
                    doc = copy.deepcopy(honest)
                    doc["nodes"][at]["side_conditions"]["dropped"] = bad
                    self.check_rejected(doc, at=at)
                doc = copy.deepcopy(honest)
                del doc["nodes"][at]["side_conditions"]["dropped"]
                self.check_rejected(doc, at=at)

    @pytest.mark.parametrize("statement,kind,field,value", [
        ("T(3,3,3;6)", "sub_split", "witness", None),  # an oracle leaf's
        ("T(3,3,3;6)", "sub_split", "side_conditions", {"junk": 1}),
        ("T(3,3,3;6)", "oracle", "reason", "one_tangent"),
        ("T(3,3,3;6)", "oracle", "table_id", "small:1,1,1"),
        ("T(3,3,3;6)", "oracle", "side_conditions", {"actual_affine_dim": 8}),
        ("T(3,3,3;1)", "trivial", "table_id", "small:1,1,1"),
        ("T(3,3,3;1)", "trivial", "side_conditions", {"slot": 0}),
        ("T(2,3,3;5)", "table_false", "reason", "one_tangent"),
    ])
    def test_field_its_kind_does_not_use(self, statement, kind, field, value):
        # each edit would give the same proof another root digest, and so
        # another cert_ref
        doc = json.loads(prove(statement).certificate.dumps())
        at = [n["kind"] for n in doc["nodes"]].index(kind)
        node = doc["nodes"][at]
        if field == "witness":
            value = doc["nodes"][witness_index(doc)]["witness"]
        elif field == "side_conditions":
            value = {**node.get(field, {}), **value}
        node[field] = value
        with pytest.raises(VerificationError, match=f"stored {field} ") as info:
            verify(doc)
        assert info.value.path == at

    def test_false_drop_above_a_superabundant_statement(self):
        # dropping conditions is an equivalence only below the ambient, so
        # a False child proves nothing about a superabundant parent
        st = parse_statement("T(1,1,1,0;1;0,0,2,1)")
        v = prove(rules.drop_child(st, 3))
        assert v.status is False and not is_subabundant(st)
        assert rules.drop_step(st, 3, (False, v.certificate.root)) is None
        node = CertNode(cert_mod.DROP_CONDITIONS, st, children=(v.certificate.root,),
                        side_conditions={"slot": 3, "dropped": 1})
        doc = json.loads(Certificate(st, False, node).dumps())
        with pytest.raises(VerificationError,
                           match="no False up from the superabundant") as info:
            verify(doc)
        assert info.value.path == root_index(doc)

    def test_split_kind_relabel(self, true_cert_doc):
        doc = copy.deepcopy(true_cert_doc)
        assert doc["nodes"][-1]["kind"] == "sub_split"
        doc["nodes"][-1]["kind"] = "super_split"
        self.check_rejected(doc, at=5)

    def test_child_removal(self, true_cert_doc):
        doc = copy.deepcopy(true_cert_doc)
        root = doc["nodes"][-1]
        assert root["children"] == [4, 4]
        root["children"] = [4]
        self.check_rejected(doc, at=5)
        # removing a child used nowhere else strands it
        doc = copy.deepcopy(true_cert_doc)
        assert doc["nodes"][4]["children"] == [1, 3]
        doc["nodes"][4]["children"] = [1]
        with pytest.raises(CertificateFormatError, match="node 3 is not a child"):
            verify(doc)
        pruned = prune(doc)
        with pytest.raises(VerificationError, match="must have 2 children") as info:
            verify(pruned)
        assert info.value.path == root_index(pruned) - 1

    def test_verify_error_names_a_node_path(self, true_cert_doc):
        doc = copy.deepcopy(true_cert_doc)
        at = witness_index(doc)
        doc["nodes"][at]["witness"]["rank"] += 1
        with pytest.raises(VerificationError) as info:
            verify(doc)
        assert info.value.path == at
        assert str(info.value).startswith(f"certificate node {at}: ")

    def test_recheck_oracle_accepts_honest(self, true_cert_doc):
        assert verify(copy.deepcopy(true_cert_doc))

    def test_forged_oracle_leaf_on_catalog_false_statement(self):
        # every witness field is consistent; only the catalog knows better
        doc = {
            "version": "cert-v2", "statement": "T(3,3,2;5)", "verdict": True,
            "nodes": [{"kind": "oracle", "statement": "T(3,3,2;5)",
                       "witness": {"prime": DEFAULT_PRIME, "seed": 0, "rows": 55,
                                   "cols": 48, "rank": 45, "target": 45}}],
        }
        with pytest.raises(VerificationError,
                           match="contradicts the table_false leaf"):
            verify(doc)

    def test_witness_prime_beyond_exact_kernel(self, true_cert_doc):
        doc = copy.deepcopy(true_cert_doc)
        at = witness_index(doc)
        doc["nodes"][at]["witness"]["prime"] = 4294967311
        assert 4294967311 > MAX_PRIME
        with pytest.raises(VerificationError, match="too large") as info:
            verify(doc)
        assert info.value.path == at

    def test_witness_matrix_too_large_to_allocate(self, tmp_path, capsys):
        # every witness field is consistent, but the matrix to recompute
        # would take 350 TiB: its allocation fails at once, and that once
        # ended verify in a MemoryError traceback.  s = 2, since no closed
        # form decides it: an oracle leaf on the trivial s = 1 is rejected
        # before its matrix is built
        st = "T(2000,2000,2000;2;0,0,0)"
        doc = {"version": "cert-v2", "statement": st, "verdict": True,
               "nodes": [{"kind": "oracle", "statement": st,
                          "witness": {"prime": DEFAULT_PRIME, "seed": 1,
                                      "rows": 12006, "cols": 2001 ** 3,
                                      "rank": 12002, "target": 12002}}]}
        assert is_valid(doc) is False
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "verification failed: certificate node 0: witness matrix "
            "12006x8012006001 cannot be allocated"]

    def test_witness_rank_above_matrix_size(self, true_cert_doc):
        doc = copy.deepcopy(true_cert_doc)
        at = witness_index(doc)
        w = doc["nodes"][at]["witness"]
        w["rank"] = min(w["rows"], w["cols"]) + 1
        with pytest.raises(VerificationError, match="exceeds") as info:
            verify(doc)
        assert info.value.path == at

    def test_recheck_once_per_distinct_witness(self, true_cert_doc,
                                               monkeypatch):
        calls = []
        real = verify_mod.recompute_rank

        def counting(st, prime, seed):
            calls.append((st.canonical().key(), prime, seed))
            return real(st, prime, seed)

        monkeypatch.setattr(verify_mod, "recompute_rank", counting)
        cert = Certificate.from_json(true_cert_doc)
        witnesses = [(n.statement.canonical().key(), n.witness.prime, n.witness.seed)
                     for n in cert.nodes if n.witness is not None]
        assert len(witnesses) == len(set(witnesses))
        assert cert.leaf_counts()["oracle"] > len(witnesses)
        assert verify(cert)
        assert sorted(calls) == sorted(witnesses)

    def test_equi_split_relabel(self):
        # every split of an equiabundant statement has equiabundant
        # children, so neither one-sided label applies
        v = prove("T(2,2,4;5)")
        assert v.certificate.root.kind == "equi_split"
        assert verify(v.certificate)
        for label in ("sub_split", "super_split"):
            doc = json.loads(v.certificate.dumps())
            doc["nodes"][-1]["kind"] = label
            with pytest.raises(VerificationError, match="gives equi_split") as info:
                verify(doc)
            assert info.value.path == root_index(doc)

    def test_false_child_under_a_split(self):
        # verdicts travel up: a split needs True children, whichever
        # verdict the certificate claims
        st = parse_statement("T(3,2,1;1;2,0,0)")
        choice = rules.SplitChoice(1, (0, 1), (0, 1), ((0, 0, 0), (2, 0, 0)))
        kind, c1, c2 = rules.split_mode(st, choice)
        (verdict, leaf1), (_, leaf2) = (rules.closed_leaf(c.canonical())
                                        for c in (c1, c2))
        assert verdict is True and leaf1.kind == cert_mod.TWO_FACTOR
        node = CertNode(kind, st, side_conditions=choice.describe(),
                        children=(leaf1, leaf2))
        for verdict in (True, False):
            doc = json.loads(Certificate(st, verdict, node).dumps())
            assert doc["nodes"][1]["kind"] == "fibration_false"
            with pytest.raises(VerificationError,
                               match="needs both children True") as info:
                verify(doc)
            assert info.value.path == 2


class TestTwoFactorLeaf:
    """The leaf's one number is the closed form's, exactly as JSON, and the
    leaf exists only for statements with at most two positive factors."""

    @pytest.mark.parametrize("text,honest,verdict", [
        ("T(0,3,3;4;2,0,0)", 16, True),
        ("T(3,3;0;2,2)", 12, False),
    ])
    def test_forged_dimension(self, text, honest, verdict):
        doc = json.loads(prove(text).certificate.dumps())
        assert doc["verdict"] is verdict and verify(doc)
        assert doc["nodes"] == [{"kind": "two_factor", "statement": doc["statement"],
                                 "side_conditions": {"actual_affine_dim": honest}}]
        for bad in (honest + 1, honest - 1, float(honest), True, str(honest)):
            forged = copy.deepcopy(doc)
            forged["nodes"][0]["side_conditions"]["actual_affine_dim"] = bad
            with pytest.raises(VerificationError,
                               match="side_conditions") as info:
                verify(forged)
            assert info.value.path == 0
        for conds in ({}, {"actual_affine_dim": honest, "extra": 1}):
            forged = copy.deepcopy(doc)
            forged["nodes"][0]["side_conditions"] = conds
            with pytest.raises(VerificationError,
                               match="side_conditions") as info:
                verify(forged)
            assert info.value.path == 0
        # the verdict is the closed form's, not the certificate's claim
        forged = copy.deepcopy(doc)
        forged["verdict"] = not verdict
        with pytest.raises(VerificationError, match="root concludes"):
            verify(forged)

    def test_three_factor_statement(self):
        st = parse_statement("T(3,3,3;6)")
        node = CertNode(cert_mod.TWO_FACTOR, st,
                        side_conditions={"actual_affine_dim": 42})
        for verdict in (True, False):
            with pytest.raises(VerificationError,
                               match="no closed form decides") as info:
                verify(Certificate(st, verdict, node))
            assert info.value.path == 0

    def test_witness_against_the_closed_form(self):
        # the closed-form check catches an oracle leaf on a two-factor
        # statement that the closed form says is false, before any recompute
        st = parse_statement("T(3,3;0;2,2)")
        w = terracini_oracle(st).witness
        forged = dataclasses.replace(w, rank=w.target)
        node = CertNode(cert_mod.ORACLE, st, witness=forged)
        with pytest.raises(VerificationError,
                           match="contradicts the two_factor leaf"):
            verify(Certificate(st, True, node))

    @pytest.mark.parametrize("text, kind", [("T(3,3,3;1)", "trivial"),
                                            ("T(1,3;2)", "two_factor")])
    def test_oracle_leaf_on_a_statement_a_closed_form_proves(self, text,
                                                             kind):
        # the honest witness reaches its target, but the statement has its
        # closed-form leaf: an oracle leaf there is a second way to the
        # same verdict, and the error names the leaf, not the drop above it
        leaf = oracle_leaf(text)
        assert rules.closed_leaf(leaf.statement)[0] is True
        below = leaf.statement
        st = Statement.of(below.format.dims + (0,), below.s, below.a + (0,))
        verdict, root = rules.drop_step(st, below.format.k, (True, leaf))
        doc = json.loads(Certificate(st, verdict, root).dumps())
        assert [n["kind"] for n in doc["nodes"]] == ["oracle",
                                                     "drop_zero_factor"]
        with pytest.raises(VerificationError,
                           match=f"oracle leaf duplicates the {kind} leaf"
                           ) as info:
            verify(doc)
        assert info.value.path == 0


class TestIntegerFields:
    """Counts must be JSON integers: int() would truncate 0.9 to 0 and read
    true as 1, so such certificates used to verify."""

    BAD = [0.9, 3.5, True, "3", None]

    def test_split_side_conditions(self, true_cert_doc):
        doc = copy.deepcopy(true_cert_doc)
        sc = doc["nodes"][-1]["side_conditions"]
        sc["slot"], sc["s_parts"] = 0.9, [3.5, 3.5]
        with pytest.raises(VerificationError, match="malformed sub_split") as info:
            verify(doc)
        assert info.value.path == 5
        for field, where in [("slot", None), ("n_parts", 0), ("s_parts", 1)]:
            for bad in self.BAD:
                doc = copy.deepcopy(true_cert_doc)
                sc = doc["nodes"][-1]["side_conditions"]
                if where is None:
                    sc[field] = bad
                else:
                    sc[field][where] = bad
                with pytest.raises(VerificationError, match="malformed sub_split"):
                    verify(doc)
        doc = copy.deepcopy(true_cert_doc)
        doc["nodes"][-1]["side_conditions"]["a_parts"][0][0] = 0.0
        with pytest.raises(VerificationError, match="malformed sub_split"):
            verify(doc)

    def test_drop_slot(self, drop_cert_doc):
        kinds = [n["kind"] for n in drop_cert_doc["nodes"]]
        for kind in ("drop_zero_factor", "drop_conditions"):
            at = kinds.index(kind)
            slot = drop_cert_doc["nodes"][at]["side_conditions"]["slot"]
            for bad in (slot + 0.0, slot + 0.4, True, str(slot)):
                doc = copy.deepcopy(drop_cert_doc)
                doc["nodes"][at]["side_conditions"]["slot"] = bad
                with pytest.raises(VerificationError,
                                   match=f"malformed {kind}") as info:
                    verify(doc)
                assert info.value.path == at

    def test_drop_slot_out_of_range(self, drop_cert_doc):
        # a negative slot indexes from the end, so -2 in a five-slot root
        # names the same slot as 3; it must still be rejected
        doc = json.loads(prove("T(3,3,3,0,0;4)").certificate.dumps())
        at = root_index(doc)
        assert doc["nodes"][at]["kind"] == "drop_zero_factor"
        assert doc["nodes"][at]["side_conditions"] == {"slot": 3}
        cases = [(doc, at, bad) for bad in (-2, -1, 5)]
        at = [n["kind"] for n in drop_cert_doc["nodes"]].index("drop_conditions")
        slot = drop_cert_doc["nodes"][at]["side_conditions"]["slot"]
        cases += [(drop_cert_doc, at, bad) for bad in (slot - 4, 4)]
        for honest, at, bad in cases:
            edited = copy.deepcopy(honest)
            edited["nodes"][at]["side_conditions"]["slot"] = bad
            with pytest.raises(VerificationError,
                               match=f"slot {bad} out of range") as info:
                verify(edited)
            assert info.value.path == at

    def test_witness_numbers(self, true_cert_doc):
        at = witness_index(true_cert_doc)
        w = true_cert_doc["nodes"][at]["witness"]
        for field in ("prime", "seed", "rows", "cols", "rank", "target"):
            for bad in (w[field] + 0.0, w[field] + 0.7, str(w[field]), None):
                doc = copy.deepcopy(true_cert_doc)
                doc["nodes"][at]["witness"][field] = bad
                with pytest.raises(CertificateFormatError,
                                   match=f"node {at}: bad witness"):
                    verify(doc)
        doc = copy.deepcopy(true_cert_doc)
        doc["nodes"][at]["witness"]["rank"] = 8.7
        assert not is_valid(doc)


# T(2,4,4;7) lies in the defective (2,n,n), n even, family but in no
# falsity catalog; its true rank is 74 of 75.
FORGED_RANK_75 = {
    "version": "cert-v2", "statement": "T(4,4,2;7)", "verdict": True,
    "nodes": [{"kind": "oracle", "statement": "T(4,4,2;7)",
               "witness": {"prime": DEFAULT_PRIME, "seed": 0, "rows": 91,
                           "cols": 75, "rank": 75, "target": 75}}],
}


class TestDefaultRecheck:
    def test_forged_witness_rank_rejected(self):
        with pytest.raises(VerificationError,
                           match="oracle re-run gives rank 74"):
            verify(copy.deepcopy(FORGED_RANK_75))
        assert not is_valid(copy.deepcopy(FORGED_RANK_75))


class TestLargeCertificate:
    def test_flagship_certificate_is_its_dag(self):
        # 27 373 nodes and 28.8 MB as an expanded tree
        v = prove("T(15,15,15,15;1074)")
        cert = v.certificate
        assert len(cert.nodes) == 110
        assert cert.leaf_counts() == {"oracle": 7278, "trivial": 18}
        text = cert.dumps()
        assert len(text) < 100_000
        again = Certificate.loads(text)
        assert again.root.digest == cert.root.digest
        assert verify(again)


def oracle_leaf(text: str) -> CertNode:
    """An oracle node carrying the witness the oracle itself produces."""
    st = parse_statement(text).canonical()
    result = terracini_oracle(st)
    assert result.certified
    return CertNode(cert_mod.ORACLE, st, witness=result.witness)


def monotone_doc(kind: str) -> dict:
    """The honest certificate that the removed monotone_format move wrote
    for T(3,3,3;4) from T(3,3,2;4), with its root's kind set to `kind`."""
    st = parse_statement("T(3,3,3;4;0,0,0)")
    node = CertNode(kind, st, side_conditions={"from_format": [3, 3, 2]},
                    children=(oracle_leaf("T(3,3,2;4)"),))
    return json.loads(Certificate(st, True, node).dumps())


@pytest.mark.parametrize("kind", ["monotone_format", "monotone_sa",
                                  "append_zero_factor", "table_true"])
def test_removed_kind_fails_loudly(kind, tmp_path, capsys):
    # node kinds that earlier versions of the format wrote
    doc = monotone_doc(kind)
    with pytest.raises(CertificateFormatError,
                       match=f"node 1: unknown node kind '{kind}'"):
        Certificate.from_json(doc)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert "malformed certificate" in err and "unknown node kind" in err

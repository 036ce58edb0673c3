"""Certificate serialization, schema validation, and tamper rejection."""

import copy
import importlib
import json

import pytest

from segredim.ffrank import DEFAULT_PRIME, MAX_PRIME, terracini_oracle
from segredim.formats import parse_statement
from segredim.induction import (
    Certificate,
    CertificateFormatError,
    CertNode,
    VerificationError,
    is_valid,
    prove,
    rules,
    verify,
)
from segredim.induction import certificate as cert_mod

verify_mod = importlib.import_module("segredim.induction.verify")


def find_witness_node(node: dict) -> dict:
    if node.get("witness"):
        return node
    for child in node.get("children", []):
        found = find_witness_node(child)
        if found:
            return found
    return {}


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


class TestSerialization:
    def test_round_trip_preserves_tree(self, true_cert_doc):
        cert = Certificate.from_json(true_cert_doc)
        again = json.loads(cert.dumps())
        assert again == true_cert_doc

    def test_version_field(self, true_cert_doc):
        assert true_cert_doc["version"] == "cert-v1"
        doc = copy.deepcopy(true_cert_doc)
        doc["version"] = "cert-v2"
        with pytest.raises(CertificateFormatError):
            Certificate.from_json(doc)

    def test_missing_fields_rejected(self, true_cert_doc):
        for field in ("statement", "verdict", "node"):
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
        doc["node"]["kind"] = "majority_vote"
        with pytest.raises(CertificateFormatError):
            Certificate.from_json(doc)

    def test_leaf_counts_and_max_cols(self, true_cert_doc):
        cert = Certificate.from_json(true_cert_doc)
        counts = cert.leaf_counts()
        assert sum(counts.values()) >= 1
        assert set(counts) <= cert_mod.ALL_KINDS
        assert cert.max_oracle_cols() <= 64

    def test_every_node_carries_its_statement(self, true_cert_doc):
        cert = Certificate.from_json(true_cert_doc)
        for node in cert.walk():
            assert node.statement is not None


class TestTamperRejection:
    def check_rejected(self, doc):
        with pytest.raises((VerificationError, CertificateFormatError)):
            verify(doc)

    def test_honest_certs_verify(self, true_cert_doc, false_cert_doc):
        assert verify(true_cert_doc) is True
        assert verify(false_cert_doc) is True

    def test_flipped_verdict(self, true_cert_doc, false_cert_doc):
        doc = copy.deepcopy(true_cert_doc)
        doc["verdict"] = False
        self.check_rejected(doc)
        doc = copy.deepcopy(false_cert_doc)
        doc["verdict"] = True
        self.check_rejected(doc)

    def test_swapped_root_statement(self, true_cert_doc):
        doc = copy.deepcopy(true_cert_doc)
        doc["statement"] = "T(3,3,3;9)"
        self.check_rejected(doc)

    def test_each_split_side_condition_edit(self, true_cert_doc):
        sc = true_cert_doc["node"]["side_conditions"]
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
            edit(doc["node"]["side_conditions"])
            self.check_rejected(doc)

    def test_witness_field_edits(self, true_cert_doc):
        for field, delta in [("rank", 1), ("rank", -1), ("target", -1),
                             ("rows", 2), ("cols", 1), ("prime", 1)]:
            doc = copy.deepcopy(true_cert_doc)
            w = find_witness_node(doc["node"])["witness"]
            w[field] += delta
            self.check_rejected(doc)

    def test_leaf_statement_reroute(self, true_cert_doc):
        doc = copy.deepcopy(true_cert_doc)
        find_witness_node(doc["node"])["statement"] = "T(1,1,1;2)"
        self.check_rejected(doc)

    def test_false_leaf_on_true_statement(self, false_cert_doc):
        doc = copy.deepcopy(false_cert_doc)
        doc["statement"] = "T(3,3,3;6)"
        doc["node"]["statement"] = "T(3,3,3;6)"
        self.check_rejected(doc)

    def test_wrong_table_id(self, false_cert_doc):
        doc = copy.deepcopy(false_cert_doc)
        doc["node"]["table_id"] = "family:1,1,n,n"
        self.check_rejected(doc)

    def test_split_kind_relabel(self, true_cert_doc):
        doc = copy.deepcopy(true_cert_doc)
        assert doc["node"]["kind"] == "sub_split"
        doc["node"]["kind"] = "super_split"
        self.check_rejected(doc)

    def test_child_removal(self, true_cert_doc):
        doc = copy.deepcopy(true_cert_doc)
        doc["node"]["children"] = doc["node"]["children"][:1]
        self.check_rejected(doc)

    def test_verify_error_names_a_node_path(self, true_cert_doc):
        doc = copy.deepcopy(true_cert_doc)
        find_witness_node(doc["node"])["witness"]["rank"] += 1
        with pytest.raises(VerificationError) as info:
            verify(doc)
        assert info.value.path.startswith("root")

    def test_recheck_oracle_accepts_honest(self, true_cert_doc):
        assert verify(copy.deepcopy(true_cert_doc), recheck_oracle=True)

    def test_forged_oracle_leaf_on_catalog_false_statement(self):
        # every witness field is consistent; only the catalog knows better
        doc = {
            "version": "cert-v1", "statement": "T(3,3,2;5)", "verdict": True,
            "node": {"kind": "oracle", "statement": "T(3,3,2;5)",
                     "witness": {"prime": DEFAULT_PRIME, "seed": 0, "rows": 55,
                                 "cols": 48, "rank": 45, "target": 45}},
        }
        with pytest.raises(VerificationError, match="falsity catalog"):
            verify(doc)

    def test_witness_prime_beyond_exact_kernel(self, true_cert_doc):
        doc = copy.deepcopy(true_cert_doc)
        find_witness_node(doc["node"])["witness"]["prime"] = 4294967311
        assert 4294967311 > MAX_PRIME
        with pytest.raises(VerificationError, match="too large"):
            verify(doc)

    def test_witness_rank_above_matrix_size(self, true_cert_doc):
        doc = copy.deepcopy(true_cert_doc)
        w = find_witness_node(doc["node"])["witness"]
        w["rank"] = min(w["rows"], w["cols"]) + 1
        with pytest.raises(VerificationError, match="exceeds"):
            verify(doc)

    def test_recheck_once_per_distinct_witness(self, true_cert_doc,
                                               monkeypatch):
        calls = []
        real = verify_mod.recompute_rank

        def counting(st, prime, seed):
            calls.append((st.canonical().key(), prime, seed))
            return real(st, prime, seed)

        monkeypatch.setattr(verify_mod, "recompute_rank", counting)
        cert = Certificate.from_json(true_cert_doc)
        leaves = [(n.statement.canonical().key(), n.witness.prime, n.witness.seed)
                  for n in cert.walk() if n.witness is not None]
        assert len(leaves) > len(set(leaves))
        assert verify(cert, recheck_oracle=True)
        assert sorted(calls) == sorted(set(leaves))

    def test_equi_split_relabel(self):
        # every split of an equiabundant statement has equiabundant
        # children, so neither one-sided label applies
        v = prove("T(2,2,4;5)")
        assert v.certificate.root.kind == "equi_split"
        assert verify(v.certificate)
        for label in ("sub_split", "super_split"):
            doc = json.loads(v.certificate.dumps())
            doc["node"]["kind"] = label
            with pytest.raises(VerificationError, match="gives equi_split"):
                verify(doc)


# T(2,4,4;7) lies in the defective (2,n,n), n even, family but in no
# falsity catalog; its true rank is 74 of 75.
FORGED_RANK_75 = {
    "version": "cert-v1", "statement": "T(4,4,2;7)", "verdict": True,
    "node": {"kind": "oracle", "statement": "T(4,4,2;7)",
             "witness": {"prime": DEFAULT_PRIME, "seed": 0, "rows": 91,
                         "cols": 75, "rank": 75, "target": 75}},
}


class TestDefaultRecheck:
    def test_forged_witness_rank_rejected(self):
        with pytest.raises(VerificationError,
                           match="oracle re-run gives rank 74"):
            verify(copy.deepcopy(FORGED_RANK_75))
        assert not is_valid(copy.deepcopy(FORGED_RANK_75))

    def test_structural_only_mode_takes_the_rank_on_trust(self):
        assert verify(copy.deepcopy(FORGED_RANK_75), recheck_oracle=False)


def oracle_leaf(text: str) -> CertNode:
    """An oracle node carrying the witness the oracle itself produces."""
    st = parse_statement(text).canonical()
    result = terracini_oracle(st)
    assert result.certified
    return CertNode(cert_mod.ORACLE, st, witness=result.witness)


def monotone_doc(kind: str, parent: str, side_conditions: dict,
                 child: str) -> dict:
    st = parse_statement(parent)
    assert st == st.canonical(), "side conditions follow canonical slots"
    node = CertNode(kind, st, side_conditions=side_conditions,
                    children=(oracle_leaf(child),))
    return json.loads(Certificate(st, True, node).dumps())


def single_edits(side_conditions: dict):
    """Every copy of the side conditions with one number moved by 1."""
    for key, value in side_conditions.items():
        if isinstance(value, list):
            for i in range(len(value)):
                for delta in (-1, 1):
                    edited = copy.deepcopy(side_conditions)
                    edited[key][i] += delta
                    yield edited
        else:
            for delta in (-1, 1):
                yield {**side_conditions, key: value + delta}


# (kind, parent, honest side conditions, child): a subabundant format lift,
# a superabundant tangent-count move and a superabundant fiber-count move
HONEST_MONOTONE = [
    ("monotone_format", "T(3,3,3;4;0,0,0)", {"from_format": [3, 3, 2]},
     "T(3,3,2;4)"),
    ("monotone_sa", "T(3,3,3;8;0,0,0)", {"from_s": 7, "from_a": [0, 0, 0]},
     "T(3,3,3;7)"),
    ("monotone_sa", "T(3,3,3;7;1,0,0)", {"from_s": 7, "from_a": [0, 0, 0]},
     "T(3,3,3;7)"),
]

# the same moves against the child's abundance: a subabundant source may
# not shrink its format or gain points, a superabundant one may not lose
# points
WRONG_DIRECTION = [
    ("monotone_format", "T(3,3,2;4;0,0,0)", {"from_format": [3, 3, 3]},
     "T(3,3,3;4)"),
    ("monotone_sa", "T(3,3,3;5;0,0,0)", {"from_s": 4, "from_a": [0, 0, 0]},
     "T(3,3,3;4)"),
    ("monotone_sa", "T(3,3,3;7;0,0,0)", {"from_s": 8, "from_a": [0, 0, 0]},
     "T(3,3,3;8)"),
]


class TestMonotoneCertificates:
    @pytest.mark.parametrize("kind,parent,sc,child", HONEST_MONOTONE)
    def test_honest_move_verifies_with_recheck(self, kind, parent, sc, child):
        assert verify(monotone_doc(kind, parent, sc, child),
                      recheck_oracle=True)

    @pytest.mark.parametrize("kind,parent,sc,child", HONEST_MONOTONE)
    def test_each_side_condition_edit_rejected(self, kind, parent, sc, child):
        doc = monotone_doc(kind, parent, sc, child)
        edits = list(single_edits(sc))
        assert len(edits) == 2 * sum(
            len(v) if isinstance(v, list) else 1 for v in sc.values())
        for edited in edits:
            tampered = copy.deepcopy(doc)
            tampered["node"]["side_conditions"] = edited
            with pytest.raises(VerificationError):
                verify(tampered)

    @pytest.mark.parametrize("kind,parent,sc,child", WRONG_DIRECTION)
    def test_wrong_direction_rejected(self, kind, parent, sc, child):
        with pytest.raises(VerificationError, match="abundance"):
            verify(monotone_doc(kind, parent, sc, child))

    def test_search_moves_rebuild_from_their_side_conditions(self):
        # the verifier rebuilds a monotone child with monotone_source; every
        # move the search may try must come back as the same child
        for text in ("T(3,3,3;8;0,1,0)", "T(3,3,2;4;0,1,0)",
                     "T(4,3,3;12;1,0,0)", "T(2,2,2;1;1,1,0)"):
            st = parse_statement(text)
            moves = list(rules.monotone_moves(st))
            assert moves, text
            for kind, sc, source in moves:
                assert rules.monotone_source(kind, st, sc) == source

"""Topology rules: who carries the interoperability burden, and the relay path."""

from __future__ import annotations

import pytest

from fedbridge.errors import (
    AmbiguousTopology,
    InvariantViolation,
    NoTrustPath,
    UnknownEntity,
)
from fedbridge.messages import EntityId
from fedbridge.trust import (
    Dialect,
    FederationEntity,
    Role,
    TrustTopology,
    resolve_path,
    resolve_responsible,
)


def entity(id_: str, role: Role, dialect: Dialect) -> FederationEntity:
    return FederationEntity(id=EntityId(id_), role=role, dialect=dialect)


def sp(id_: str, dialect: Dialect = Dialect.SAML2) -> FederationEntity:
    return entity(id_, Role.SERVICE_PROVIDER, dialect)


def ip(id_: str, dialect: Dialect = Dialect.WSFED11B) -> FederationEntity:
    return entity(id_, Role.IDENTITY_PROVIDER, dialect)


def broker(id_: str) -> FederationEntity:
    return entity(id_, Role.BROKER, Dialect.BOTH)


def eid(value: str) -> EntityId:
    return EntityId(value)


def authority_centered() -> TrustTopology:
    """One WS-Fed authority serving three providers, one of them SAML."""
    return TrustTopology(
        [ip("urn:ip"), sp("urn:sp-saml"), sp("urn:sp2", Dialect.WSFED11B), sp("urn:sp3", Dialect.WSFED11B)],
        [(eid("urn:ip"), eid("urn:sp-saml")), (eid("urn:ip"), eid("urn:sp2")), (eid("urn:ip"), eid("urn:sp3"))],
    )


def provider_centered() -> TrustTopology:
    """One SAML provider federating with two authorities of differing dialects."""
    return TrustTopology(
        [sp("urn:sp"), ip("urn:ip-wsfed"), ip("urn:ip-saml", Dialect.SAML2)],
        [(eid("urn:sp"), eid("urn:ip-wsfed")), (eid("urn:sp"), eid("urn:ip-saml"))],
    )


def brokered() -> TrustTopology:
    return TrustTopology(
        [sp("urn:sp"), ip("urn:ip"), broker("urn:broker")],
        [(eid("urn:sp"), eid("urn:broker")), (eid("urn:broker"), eid("urn:ip"))],
    )


def dual_hub() -> TrustTopology:
    return TrustTopology(
        [
            sp("urn:sp"),
            sp("urn:sp2", Dialect.WSFED11B),
            ip("urn:ip"),
            ip("urn:ip2", Dialect.SAML2),
        ],
        [
            (eid("urn:sp"), eid("urn:ip")),
            (eid("urn:sp2"), eid("urn:ip")),
            (eid("urn:sp"), eid("urn:ip2")),
        ],
    )


class TestResolveResponsible:
    def test_authority_centered_puts_burden_on_authority(self):
        assert resolve_responsible(authority_centered(), eid("urn:sp-saml"), eid("urn:ip")) == eid("urn:ip")

    def test_provider_centered_puts_burden_on_provider(self):
        assert resolve_responsible(provider_centered(), eid("urn:sp"), eid("urn:ip-wsfed")) == eid("urn:sp")

    def test_brokered_topology_names_the_third_party(self):
        assert resolve_responsible(brokered(), eid("urn:sp"), eid("urn:ip")) == eid("urn:broker")

    def test_dual_hub_is_ambiguous(self):
        with pytest.raises(AmbiguousTopology):
            resolve_responsible(dual_hub(), eid("urn:sp"), eid("urn:ip"))

    def test_isolated_pair_has_no_path(self):
        topo = TrustTopology([sp("urn:sp"), ip("urn:ip")], [])
        with pytest.raises(NoTrustPath):
            resolve_responsible(topo, eid("urn:sp"), eid("urn:ip"))

    def test_one_on_one_link_defaults_to_authority(self):
        topo = TrustTopology(
            [sp("urn:sp"), ip("urn:ip")], [(eid("urn:sp"), eid("urn:ip"))]
        )
        assert resolve_responsible(topo, eid("urn:sp"), eid("urn:ip")) == eid("urn:ip")

    def test_role_mismatch_rejected(self):
        topo = brokered()
        with pytest.raises(UnknownEntity, match="urn:ip is not a service provider"):
            resolve_responsible(topo, eid("urn:ip"), eid("urn:sp"))

    def test_pair_without_an_identity_provider_rejected(self):
        topo = authority_centered()
        with pytest.raises(UnknownEntity, match="urn:sp2 is not an identity provider"):
            resolve_path(topo, eid("urn:sp-saml"), eid("urn:sp2"))

    def test_same_dialect_pair_rejected(self):
        topo = TrustTopology(
            [sp("urn:sp", Dialect.WSFED11B), ip("urn:ip")],
            [(eid("urn:sp"), eid("urn:ip"))],
        )
        with pytest.raises(UnknownEntity):
            resolve_responsible(topo, eid("urn:sp"), eid("urn:ip"))


class TestResolvePath:
    def test_direct_link(self):
        topo = authority_centered()
        assert resolve_path(topo, eid("urn:sp-saml"), eid("urn:ip")) == [eid("urn:sp-saml"), eid("urn:ip")]

    def test_brokered_path(self):
        assert resolve_path(brokered(), eid("urn:sp"), eid("urn:ip")) == [
            eid("urn:sp"),
            eid("urn:broker"),
            eid("urn:ip"),
        ]

    def test_unreachable(self):
        topo = TrustTopology([sp("urn:sp"), ip("urn:ip"), broker("urn:b")], [(eid("urn:sp"), eid("urn:b"))])
        with pytest.raises(NoTrustPath):
            resolve_path(topo, eid("urn:sp"), eid("urn:ip"))

    @pytest.mark.parametrize(
        "topo,sp_id,ip_id",
        [
            (authority_centered(), "urn:sp-saml", "urn:ip"),
            (provider_centered(), "urn:sp", "urn:ip-wsfed"),
            (brokered(), "urn:sp", "urn:ip"),
        ],
    )
    def test_responsible_lies_on_the_path(self, topo, sp_id, ip_id):
        responsible = resolve_responsible(topo, eid(sp_id), eid(ip_id))
        assert responsible in resolve_path(topo, eid(sp_id), eid(ip_id))


class TestMonotoneLocality:
    @pytest.mark.parametrize(
        "build,sp_id,ip_id",
        [
            (authority_centered, "urn:sp-saml", "urn:ip"),
            (provider_centered, "urn:sp", "urn:ip-wsfed"),
            (brokered, "urn:sp", "urn:ip"),
        ],
    )
    def test_unrelated_additions_change_nothing(self, build, sp_id, ip_id):
        topo = build()
        before = resolve_responsible(topo, eid(sp_id), eid(ip_id))
        path_before = resolve_path(topo, eid(sp_id), eid(ip_id))

        extended = TrustTopology(
            topo.entities()
            + [sp("urn:far-sp", Dialect.WSFED11B), ip("urn:far-ip", Dialect.SAML2)],
            [tuple(pair) for pair in _links_of(topo)]
            + [(eid("urn:far-sp"), eid("urn:far-ip"))],
        )
        assert resolve_responsible(extended, eid(sp_id), eid(ip_id)) == before
        assert resolve_path(extended, eid(sp_id), eid(ip_id)) == path_before


def _links_of(topo: TrustTopology) -> list[tuple[EntityId, EntityId]]:
    return [tuple(sorted(pair, key=lambda e: e.value)) for pair in topo._links]


class TestTopologyValidation:
    def test_broker_must_speak_both_dialects(self):
        with pytest.raises(InvariantViolation):
            entity("urn:b", Role.BROKER, Dialect.SAML2)

    def test_provider_needs_exactly_one_dialect(self):
        with pytest.raises(InvariantViolation):
            entity("urn:sp", Role.SERVICE_PROVIDER, Dialect.BOTH)

    def test_self_links_rejected(self):
        with pytest.raises(InvariantViolation):
            TrustTopology([sp("urn:sp")], [(eid("urn:sp"), eid("urn:sp"))])

    def test_links_must_reference_known_entities(self):
        for link in [(eid("urn:sp"), eid("urn:ghost")), (eid("urn:ghost"), eid("urn:sp"))]:
            with pytest.raises(InvariantViolation, match="trust link references unknown entity"):
                TrustTopology([sp("urn:sp")], [link])

    def test_duplicate_entities_rejected(self):
        with pytest.raises(InvariantViolation, match="duplicate entity urn:sp"):
            TrustTopology([sp("urn:sp"), sp("urn:sp", Dialect.WSFED11B)], [])

    def test_unknown_entity_lookup(self):
        with pytest.raises(UnknownEntity):
            brokered().entity(eid("urn:ghost"))

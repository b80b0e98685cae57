"""Configuration load: a config that would switch a relay check off, or that
names what does not exist, is refused before the broker starts, each with a
message naming the config key at fault."""

from __future__ import annotations

import pytest

from fedbridge.broker import Broker
from fedbridge.config import MAX_CLOCK_SKEW_S, MAX_TTL_S, config_from_dict
from fedbridge.errors import UnknownEntity
from fedbridge.messages import EntityId

BROKER = "https://broker.example.test"
STS = "https://sts.example.test"
IDP = "https://idp.example.test"
SAML_SP = "https://saml-sp.example.test"
WSFED_SP = "https://wsfed-sp.example.test"


def entity(data: dict, entity_id: str) -> dict:
    return next(e for e in data["entities"] if e["id"] == entity_id)


def refused(data: dict, tmp_path, message: str, error=ValueError) -> None:
    with pytest.raises(error, match=message):
        Broker(config_from_dict(data, base_dir=tmp_path))


class TestBounds:
    @pytest.mark.parametrize("name, value, message", [
        ("clock_skew_seconds", 1e9, r"ttl\.clock_skew_seconds must lie in \[0, 300\] s, not 1e\+09"),
        ("clock_skew_seconds", -1, r"ttl\.clock_skew_seconds must lie in \[0, 300\] s, not -1"),
        ("replay_seconds", 0, r"ttl\.replay_seconds must lie in \(0, 3600\] s, not 0"),
        ("correlation_seconds", -5, r"ttl\.correlation_seconds must lie in \(0, 3600\] s, not -5"),
        ("correlation_seconds", MAX_TTL_S + 1, r"ttl\.correlation_seconds .* not 3601"),
        ("replay_seconds", float("nan"), r"ttl\.replay_seconds .* not nan"),
    ], ids=["skew_1e9", "skew_negative", "replay_zero", "correlation_negative",
            "correlation_over_max", "replay_nan"])
    def test_out_of_bounds_refused(self, demo_cfg_dict, tmp_path, name, value, message):
        demo_cfg_dict["ttl"][name] = value
        refused(demo_cfg_dict, tmp_path, message)

    def test_bounds_themselves_load(self, demo_cfg_dict, tmp_path):
        demo_cfg_dict["ttl"] = {"correlation_seconds": MAX_TTL_S, "replay_seconds": MAX_TTL_S,
                                "clock_skew_seconds": MAX_CLOCK_SKEW_S}
        cfg = config_from_dict(demo_cfg_dict, base_dir=tmp_path)
        assert (cfg.correlation_ttl, cfg.replay_ttl, cfg.clock_skew) == (3600, 3600, 300)
        demo_cfg_dict["ttl"]["clock_skew_seconds"] = 0
        assert config_from_dict(demo_cfg_dict, base_dir=tmp_path).clock_skew == 0


class TestKeysAndTopology:
    def test_identity_provider_listing_another_entitys_key(self, demo_cfg_dict, tmp_path):
        entity(demo_cfg_dict, IDP)["keys"] = ["idp-signing", "sts-signing"]
        refused(demo_cfg_dict, tmp_path, f"{IDP} lists key 'sts-signing', owned by {STS}")

    def test_entity_listing_an_undeclared_key(self, demo_cfg_dict, tmp_path):
        entity(demo_cfg_dict, STS)["keys"] = ["sts-signing", "sts-2026"]
        refused(demo_cfg_dict, tmp_path, f"{STS} lists key 'sts-2026', which keys lacks")

    def test_bridged_identity_provider_without_keys(self, demo_cfg_dict, tmp_path):
        entity(demo_cfg_dict, STS)["keys"] = []
        refused(demo_cfg_dict, tmp_path, f"{STS} is bridged by {BROKER} but lists no keys")

    def test_keyless_authorities_the_broker_does_not_bridge_load(self, demo_cfg_dict, tmp_path):
        # As in the benchmark's federations: one authority linked straight to
        # a provider, one linked to nobody, neither with a key.
        demo_cfg_dict["entities"] += [
            {"id": "https://zz-sts-direct.example.test", "role": "identity-provider",
             "dialect": "wsfed1.1b", "endpoints": {"signin": "https://zz/signin"}},
            {"id": "https://zz-idp-unlinked.example.test", "role": "identity-provider",
             "dialect": "saml2", "endpoints": {"sso": "https://zz/sso"}},
        ]
        demo_cfg_dict["links"].append([SAML_SP, "https://zz-sts-direct.example.test"])
        Broker(config_from_dict(demo_cfg_dict, base_dir=tmp_path))

    @pytest.mark.parametrize("sp_id", ["https://nobody.example.test", IDP])
    def test_pseudonym_mode_naming_no_service_provider(self, demo_cfg_dict, tmp_path, sp_id):
        demo_cfg_dict["pseudonym"]["modes"] = {sp_id: "persistent"}
        refused(demo_cfg_dict, tmp_path,
                f"pseudonym.modes names {sp_id}, not a registered service provider")

    def test_wsfed_provider_without_return_endpoint(self, demo_cfg_dict, tmp_path):
        entity(demo_cfg_dict, WSFED_SP)["endpoints"] = {}
        refused(demo_cfg_dict, tmp_path, f"service provider {WSFED_SP} has no 'return' endpoint")


class TestExistingChecks:
    """One test per check that load already made, each on the message that
    check alone produces."""

    def test_key_owned_by_unknown_entity(self, demo_cfg_dict, tmp_path):
        demo_cfg_dict["keys"][1]["owner"] = "https://nobody.example.test"
        refused(demo_cfg_dict, tmp_path,
                "key sts-signing owned by unknown entity https://nobody.example.test")

    def test_signing_key_without_private_key_file(self, demo_cfg_dict, tmp_path):
        del demo_cfg_dict["keys"][0]["private_key_file"]
        refused(demo_cfg_dict, tmp_path, "broker signing key 'broker-signing' has no private key")

    def test_signing_key_owned_by_another_entity(self, demo_cfg_dict, tmp_path):
        demo_cfg_dict["broker"]["signing_key_id"] = "sts-signing"
        refused(demo_cfg_dict, tmp_path, "broker signing key must be owned by the broker entity")

    def test_unknown_pseudonym_mode(self, demo_cfg_dict, tmp_path):
        demo_cfg_dict["pseudonym"]["modes"] = {SAML_SP: "pairwise"}
        refused(demo_cfg_dict, tmp_path, f"unknown pseudonym mode 'pairwise' for {SAML_SP}")

    def test_pseudonym_mode_without_master_secret(self, demo_cfg_dict, tmp_path):
        demo_cfg_dict["pseudonym"] = {"modes": {SAML_SP: "transient"}}
        refused(demo_cfg_dict, tmp_path, "pseudonym modes require a master_secret_file")

    def test_mode_none_needs_no_master_secret(self, demo_cfg_dict, tmp_path):
        demo_cfg_dict["pseudonym"] = {"modes": {SAML_SP: "none"}}
        routes = Broker(config_from_dict(demo_cfg_dict, base_dir=tmp_path)).plan.routes
        assert all(route is None or route.rewrite is None for route in routes.values())

    def test_broker_entity_without_broker_role(self, demo_cfg_dict, tmp_path):
        demo_cfg_dict["broker"]["entity_id"] = STS
        demo_cfg_dict["broker"]["signing_key_id"] = "sts-signing"
        refused(demo_cfg_dict, tmp_path, f"{STS} is not declared with the broker role")

    def test_private_key_for_an_entity_without_one(self, demo_cfg_dict, tmp_path):
        del demo_cfg_dict["keys"][1]["private_key_file"]
        cfg = config_from_dict(demo_cfg_dict, base_dir=tmp_path)
        with pytest.raises(ValueError, match=f"no private key configured for {STS}"):
            cfg.private_key_for(EntityId(STS))

    @pytest.mark.parametrize("kind", ["saml_sso", "saml_acs", "wsfed_signin", "wsfed_return"])
    def test_broker_entity_missing_an_endpoint(self, demo_cfg_dict, tmp_path, kind):
        del entity(demo_cfg_dict, BROKER)["endpoints"][kind]
        refused(demo_cfg_dict, tmp_path, f"{BROKER} has no '{kind}' endpoint", UnknownEntity)

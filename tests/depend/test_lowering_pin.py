"""Byte pins of every per-instance walk over the shipped apps.

For each app in ``APP_BUILDERS`` at its default size, the canonical JSON
of the reference-based access plan, the instance-based renaming, the
sequential reference, the serial cycle count and the dependence
instances is hashed and compared with a committed digest.  Any change
to how guards, process ids or subscripts are evaluated that alters a
single address, ordinal, value or their order shows up here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

import pytest

from repro.depend.graph import DependenceGraph
from repro.lab.apps import APP_BUILDERS, build_app
from repro.schemes import plan_accesses, rename


def plain(value: Any) -> Any:
    """``value`` as JSON-ready lists, dict entries in insertion order."""
    if dataclasses.is_dataclass(value):
        return [[f.name, plain(getattr(value, f.name))]
                for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return [[plain(key), plain(item)] for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def digest(value: Any) -> str:
    text = json.dumps(plain(value), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def walks(app: str) -> dict:
    loop = build_app(app, {})
    return {
        "plan_accesses": plan_accesses(loop),
        "rename": rename(loop),
        "execute_sequential": loop.execute_sequential({}),
        "serial_cycles": loop.serial_cycles(),
        "dependence_instances": DependenceGraph(loop).dependence_instances(),
    }


#: app -> walk -> sha256 of its canonical JSON
PINS = {
    "adi": {
        "plan_accesses":
            "ef4d076c5ad1d465432e68ef675aeef244ee3e0a72078842a4688da68725a3bf",
        "rename":
            "e72ad2acfa4cf8fcee97cb17af350676f87f158607753f3a74b0643275993385",
        "execute_sequential":
            "5ff7185839e25a3c9e763f26a4a1495abfd886216862d04674f1cdf648cbf91d",
        "serial_cycles":
            "3f1bb7c0da3c01e685edd592f3a3ca0b149a399d25b97c0da47118c24a39f59a",
        "dependence_instances":
            "988eb6c0a707f8cf1ea8ea30446bb1422a143fd59b675b57fc639b28422b9fba",
    },
    "example2": {
        "plan_accesses":
            "82069dbed59478467c3bf1b167aebff80d5b4c6599af70143ba54ae508af22c0",
        "rename":
            "72d8f58b61f814a87a707eafa6584f521e5e484bda1641a7e1326e44e2e9e573",
        "execute_sequential":
            "24ad978bf97974837a8ebfe17683108316501751262a366b51ba2736d10f0060",
        "serial_cycles":
            "9f69998560dcfd8016442e0a32e959191df095817a164ce844c64ec5a8b0cc1b",
        "dependence_instances":
            "c29ed355f2aff2cce9505b9746f25f77ffa78fc7afe78c1d9edf0e9180a5398a",
    },
    "example3": {
        "plan_accesses":
            "ae882fc2213bee1386b5847b102778eafebb1eeebbd62bb2d9710dd0cbf7598c",
        "rename":
            "79e3f9efe30ac6c6736987db58808e84806aaa54fb948d72d9130df8e2b8c118",
        "execute_sequential":
            "d805d8de2751af9e0a98856b75f1f5e20c97660ae5c46ef7aff49f1e5815d1a6",
        "serial_cycles":
            "936f6af81f1f8fd9318cfde987bcf123ec996fcae1c7bd1cb09416eb52eb1ee8",
        "dependence_instances":
            "79466fd57b023733cb0def361d33512720abef4fff5ff93d97e4088548800981",
    },
    "fig2.1": {
        "plan_accesses":
            "6507b7a9ad4815c26494e9b40e239dc0040fb05906bdaefa5a32e4fd88e8e7e5",
        "rename":
            "419570cbeff8971300c332b97a6f4939c92fc6cd95d2518860afc533f964f2ce",
        "execute_sequential":
            "04fe869db30726eb3eee658891ec942e6c13ae21565aa1bd32967edb0e10c37a",
        "serial_cycles":
            "0f8eb4b72b6e0c9e88b388eb967b49e067ef1004bf07bffc22c3acb13b43580a",
        "dependence_instances":
            "b41eba69f6e9f4a8611cd8c2afb5c0d201cbbde03b8f50116009518bf22cb371",
    },
    "fig2.1-delay": {
        "plan_accesses":
            "6507b7a9ad4815c26494e9b40e239dc0040fb05906bdaefa5a32e4fd88e8e7e5",
        "rename":
            "419570cbeff8971300c332b97a6f4939c92fc6cd95d2518860afc533f964f2ce",
        "execute_sequential":
            "04fe869db30726eb3eee658891ec942e6c13ae21565aa1bd32967edb0e10c37a",
        "serial_cycles":
            "ac4584b90286aec1085d8c45ce6c667fd81ec6fa46248ba10f9a5d354aad9710",
        "dependence_instances":
            "b41eba69f6e9f4a8611cd8c2afb5c0d201cbbde03b8f50116009518bf22cb371",
    },
    "first-diff": {
        "plan_accesses":
            "94a3bf097a55e4013ebf8d1fc88f26ebe66b01a8c062f79bea93e1e37e7b7960",
        "rename":
            "56bc47cdb6e57329f42657227639b69ebbe5473b709e93d0e6879b8d61105b30",
        "execute_sequential":
            "46e5538dc37ec46d673489dcc1f52405a183eb0d08d65592b6f9fdd3f9a41010",
        "serial_cycles":
            "51e8ea280b44e16934d4d611901f3d3afc41789840acdff81942c2f65009cd52",
        "dependence_instances":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
    "fold-chain": {
        "plan_accesses":
            "99e4f5a94b3a3fa10f9089edf18dfe8a080689ce34050b550d87a847127b1889",
        "rename":
            "1d04168138c025f0f63dfe4ee80b5c81f0bb40f670e79d773ee318a0ed85c777",
        "execute_sequential":
            "87f964adf5dfdcc1a2c7fb47fbb85573e5e28106c5677b4515a7a74856b046bb",
        "serial_cycles":
            "15197cf7214b58e67cae565e573ffd9aa44bcb81f8ee5d7185dfe8da0a16ef43",
        "dependence_instances":
            "27c4c4de4c8c29242679696b03312abe507894cc4808cf5b26a6330309bf4db8",
    },
    "hydro": {
        "plan_accesses":
            "f1dbca782277c1834933ae07c6a52618c21d08f6a3d46608c26006e2448c2f8f",
        "rename":
            "fb5e8c773ded502b4a4ce8f15b0c96dd5c3790db668643a1c82ff759f42f9219",
        "execute_sequential":
            "e7b92446589ee65c43153c353fc8ce30409f11cb050f391de330af6622b89ee8",
        "serial_cycles":
            "94f8607915dff25f013e45fc0642fb9830b0fb25ab0ab46d477eaf1061def379",
        "dependence_instances":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
    "prefix": {
        "plan_accesses":
            "20a53ad794c2fa2fcd92a7cd5e18fac4d52d4cb31e4f5fab6bab1084400a2c1f",
        "rename":
            "fe3dac44932f6b9980e84ca4055b236e9a62c83dce3c94436b227f9a43d52908",
        "execute_sequential":
            "3162da37d4a60c0cd6a15cb0913eddf6a508ca79805cbf602b89b5fcd4df765f",
        "serial_cycles":
            "ddfe0e8d462af661f81db36589c39882dc0f2330785b5d80cd34f2f520ad618f",
        "dependence_instances":
            "a5dca7bdbd6770f15c9f38a9911e0dc4d8482643054dec88fa9defa5a8ec50b3",
    },
    "relaxation-loop": {
        "plan_accesses":
            "d18dba92cff17fdaac10bb08ddc2ad0effca021f8471f3103e1f2626e84f1b30",
        "rename":
            "227627590b85ae5874fed7f560550f148a18500dc9121d5f7fcd333e6f0b8832",
        "execute_sequential":
            "461567aaddc1912fb92cd9f56a5341c272cda6a393a5005c167f80fe693a392d",
        "serial_cycles":
            "109605b9bd377f6c636831a2a8a5c6f397e5887c28c3071688413a15388066c2",
        "dependence_instances":
            "ee21b20eb8ac13a133709718c41e55ab3e8136e304a43e35dc6074c69e5a6199",
    },
    "state": {
        "plan_accesses":
            "eb871841e27058ecedf499888eaefadd92a9dcb4b014c58c3d642eb4034902f7",
        "rename":
            "26e933c868d85b27acdf6e42f4d7e231785100cd01182e5ec304edb20d518372",
        "execute_sequential":
            "2d0c6ac4e148fc85fe83c7a69783126bbe68a76989297538744dc25f12374dfa",
        "serial_cycles":
            "f7b856c054de7ccced087ad4f9413380ec494e40abc818b840aaad990ca3c5bc",
        "dependence_instances":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
    "tridiag": {
        "plan_accesses":
            "8e3a53641a0f93c770eb4caf884bea1c09dabf35084cbe92f36b508a4256218c",
        "rename":
            "74771d81279ca6a033539e02a2a1b97186fd8bd4337db659882a03a34933c130",
        "execute_sequential":
            "2c35a21ef01bca29997863c7e531a504f81a336b622746a54718da0f7c7e8efc",
        "serial_cycles":
            "ba689abd93c9c6a7d08b5b5c04dd27f6d69755ebe9a87fb969e73dfc11660e38",
        "dependence_instances":
            "32521f1ce229c6d03efc2170814fa713aa57c0b0489ee2fba835cc66012a0937",
    },
    "triple-nested": {
        "plan_accesses":
            "274a9f59aba86cf77c1fb4cac7e558f898d1f9510c3f9b7e7891e1b340c8af35",
        "rename":
            "e328954348d4b8b94faf30bebf7e19f1d8eb7fec53a6ed03d679ce5bb31a3a6a",
        "execute_sequential":
            "4f228b46c8f334f62327387fd931a0901a9b867acc5d6a8027aeaf51010a2d88",
        "serial_cycles":
            "d829857eb1366e70be857a69886d1555af0d32681beab068afb93492c2e2b843",
        "dependence_instances":
            "010c58355def314f31f69eb73be1ae47e1b2812db5cbd2beafdfc7f15aa1c314",
    },
}


def test_every_app_is_pinned():
    assert sorted(PINS) == sorted(APP_BUILDERS)


@pytest.mark.parametrize("app", sorted(APP_BUILDERS))
def test_walks_match_their_pins(app):
    assert {name: digest(value)
            for name, value in walks(app).items()} == PINS[app]

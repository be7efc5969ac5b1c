"""Byte-identity pins: the exact bytes negotiation sends and the exact
columns synthesis draws, for every shipped consortium at its config
seed.  The golden reports pin what a run reports, not the request bytes
or the cohorts behind it; these digests pin those, so a change to how
requests are encoded or cohorts are drawn must leave both unchanged.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from curie import harness
from curie.engine import EMPTY, AcquireRequest, Agreement, answer_request
from curie.errors import CurieError

from conftest import CONSORTIA_DIR, config_path, dataset_digest


def log_digest(log) -> str:
    """SHA-256 over the sender, receiver, kind and payload of every
    message of *log*, in order, each field length-prefixed."""
    h = hashlib.sha256()
    for m in log:
        for part in (m.sender.encode(), m.receiver.encode(), m.kind.encode(), m.payload):
            h.update(len(part).to_bytes(8, "big"))
            h.update(part)
    return h.hexdigest()


def captured(monkeypatch, name: str) -> dict:
    """What the negotiate run of consortium *name* at its config seed
    negotiates and synthesizes: its member ``contexts``, its
    ``agreements`` and negotiation ``log``, and its ``synth`` members."""
    monkeypatch.delenv("CURIE_SEED", raising=False)
    seen: dict = {}
    negotiate, synth = harness.negotiate_consortium, harness.synth_members

    def negotiate_consortium(contexts, *args, **kwargs):
        seen["contexts"] = contexts
        seen["agreements"], seen["log"] = negotiate(contexts, *args, **kwargs)
        return seen["agreements"], seen["log"]

    def synth_members(*args, **kwargs):
        seen["synth"] = synth(*args, **kwargs)
        return seen["synth"]

    monkeypatch.setattr(harness, "negotiate_consortium", negotiate_consortium)
    monkeypatch.setattr(harness, "synth_members", synth_members)
    harness.run_scenario(harness.load_config(config_path(name)), harness.MODE_NEGOTIATE)
    return seen


def negotiated(monkeypatch, name: str) -> tuple[str, dict[str, str]]:
    """The negotiation log digest of consortium *name* at its config
    seed, and the digest of each member its synthesis draws."""
    seen = captured(monkeypatch, name)
    return (log_digest(seen["log"]),
            {ds.provenance: dataset_digest(ds) for ds in seen.get("synth", [])})


# recorded before request encoding and cohort synthesis were reworked
NEGOTIATION_LOGS: dict[str, str] = {
    "default_dp":
        "2e7c064d45d5a63b2d9156e6f5cc3a9344739fd1fdd06242497a93b70feb2c2e",
    "example3":
        "068228a18570cb2e9a61c4aeb5952053394f00e0e376c942c9b173713d954a0f",
    "p1_single":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "p2_nationwide":
        "226405e0f333f1111b4293c63d724d4ec5c92b8697704378246db14cb24929cb",
    "p3_regional":
        "38ddfa62c0a7ef0e7c267153034154dd0ae93e2d17226c06611a9bc81a90dadd",
    "p4_nato_eu":
        "c438199594b23e8b36437cd32f95f045c4ae434ccd0c3197b4c4622a4475e780",
    "p5_global":
        "378e5ea22cf14619a4276896ba63491958334e60d61832021dd25190428939ed",
    "race_select":
        "1f1b73cbd3e0be05e29f05c0c4449a18cf5aa49dc6f7539f465b723c934915c8",
}

SYNTH_MEMBERS: dict[str, dict[str, str]] = {
    "default_dp": {
        "D1": "a80c1223712eb3295c301101220ab64a2ff43267525e95cb4dbc2da30fd43849",
        "D2": "ac88dad1c4d11dec1fb884ceeab0f62508f62af8d176af47b99a003750be768c",
        "D3": "cb03b4a69717117c4400ed551a2897ec4cbab7decbfc2b0b33ac444fa93e5982",
        "D4": "1a4c9e95519335d32c2cc6d57763979496e9bbafc72b1af6bf7fb5e8193fb5fe",
    },
    "example3": {
        "M1": "0f304c919bb0b421acc14cb36a62b07ef3ae543bc32686e4483bf56869e893c4",
        "M2": "8fbf0f000691380f014512faa37c7f26c0185f53a174da1a260c7c7a068de3e5",
        "M3": "46d66dfc218ea7feffb0d615a1b356e871de3224cd788cb0c11d041994a97f94",
    },
    "p1_single": {
        "M_TW": "336f3090540a4fd0d4e8d4caeea2e075428ca9abd9c9987461d2d401f6312b76",
        "M_JP": "f537eab12b50f57719ac843d5757febacaa2a90e37b7fd7ed0c3b0fb2e58f24e",
        "M_KR": "c87f1b9b415401e1bfdd7d2ed7be439ee31c1a73198797ab6e12d2e0359bb6e1",
        "M_SG": "3e3edba504d37573acab72ba306562590a568fabcd1e639ab4545973f67d26a7",
        "M_SE": "070f55ad110502c41921515795b4b4d874a7e28d384909b899f55a4437081f63",
        "M_IL": "052589a0668045c7992722774cb04b75c2d3826703a4479ed27ae7fecd49d663",
        "M_BR": "28aae7cc1c2dc8b78d04fb301cba778cc672f5b32715c57787090243dfebe664",
        "M_UK": "d549adac4f189910a6bc8fa06200a899f1db68de0dda31901a4d6ce1480dde73",
        "M_US1": "ad123bdd7909718bf7aa5bbb82c197a2a523f4867f6e06b6e7b21a88fc8b6722",
        "M_US2": "0ba16a94a09375b9a1c5a5b12d70d7367311f2a187abefa2eac5bd88fccfd53c",
    },
    "p2_nationwide": {
        "M_TW": "c1f62936fc30b26e80c3100e36d79618734b733f06469612fde64acf8276b7ac",
        "M_JP": "fe2eb7c7d4ca03f0cb23a4dfb92b1bd9378539f5ca45c71974f7678b54fcd593",
        "M_KR": "778ff0bd32dfa199ba443247969c85e6b936eda10893d4cfd4f832f72f67d2b1",
        "M_SG": "7e0f336d3439a15a7fbba84fe2892586c262ae281a3de9c61fb4695959a8c57d",
        "M_SE": "ea292b3396fab82df435ac736617a9bf084085b4dcdcee7f065cfbd1c37b59db",
        "M_IL": "228ea630a45e9658d44c8c2b0a5770a8b9ca38f40b85c249e32820f1ac0ad7a7",
        "M_BR": "99d25ebb8c44602a645867dbf4e52421fd741d3b2b05389befb87d6f6f22e253",
        "M_UK": "ea0725529616a70130d1fa97b96ceba12a8717fe9c2dcb929a75bc17a72b83bb",
        "M_US1": "e16ec9e72e629d8eac5e4a92c8afdcf43522e2baf2e3f8746904c0ed5fad765a",
        "M_US2": "1c5bc3c01e13a34272ef67568f5ff8169346f7c33587a4cc78b4281cefee6ded",
    },
    "p3_regional": {
        "M_TW": "1a4045939fe3af3b1660d67a2f5841275c2c72e85907afb2f1564aa99ad3de13",
        "M_JP": "ff06dda92bc8760ffa16837768187cfd4cee4154672a6f682382cd9260bf97ea",
        "M_KR": "eea8524e7bc8ce9406752f06295ad6646f125b608c5ee7bbe12c2334af2cb9ba",
        "M_SG": "725f3a48b4e25d10efc222ec02a76c5064b88e4fe18be76fada8309325af50f1",
        "M_SE": "024634050e088eda495e12687db1688f8c028940b57100e96980c50c91965209",
        "M_IL": "47583eb086246dfc1442769ce050067ad2d537c6a40b29218548c86b4889704d",
        "M_BR": "1bc007ab9660f807c2b06c849b5f7f04d71de56213c2392ab64cf0a904715cb5",
        "M_UK": "0c468c28a40b60cd05ba6fb1ebf05f462d93d12ec4e6b4891c169efae818b701",
        "M_US1": "ccedfa1f69591df2502814e36dc359d03cc89b94f818c2c65e0639ab3e859394",
        "M_US2": "607fc7f88eb2c0b96b580a990b05f7bbe4914de58f15ad01e03d5ecae1688886",
    },
    "p4_nato_eu": {
        "M_TW": "bb73624294bb5a3c31f458e995f6683d4449a18253268c156527dd841c072629",
        "M_JP": "065f3f629957095cc8a1a5f7343bad66a183c47a2cc588995f4509691d5b24ab",
        "M_KR": "7281d80ea39a0b9dde9bad743fcab248dc177b51459e31327a44f616a1c52ccd",
        "M_SG": "73691d3cc1ff5cb84b0b2eeb49170a1466aadf31592c43229720467043c4bf77",
        "M_SE": "a0c22ca87a40a65018d5c8dec1aec810d1ea0a9b4e97e1cefbd9272d845ab9ed",
        "M_IL": "01f44ddd1aee613a206d6f14f3948e3f97097e9eb6c620a0ebb9fe18b2034244",
        "M_BR": "284dda75b92ea424ab5c6cbc1d29dba08442a342824dc45a58b7e424c215aff6",
        "M_UK": "add3bcd969deb4e6a01d04c375cc60df8fa4d05980c0d44c6b6185058ff5c16a",
        "M_US1": "00491ce0fd6a1c83fd93298354162469434985b37e4b1f8793b2befe215837a5",
        "M_US2": "ad96fe7e2be8d9c450127760301b7eca3eaf267afa6de6b74fb38fbcfdd3c492",
    },
    "p5_global": {
        "M_TW": "099cb5c63589864d01a126ce90b8645a4c4d08c6d6ccd4a190e58b7d41c33785",
        "M_JP": "bc83134d83b572772850829f8eb356a4ea9e0639c2b201e3f251c4942ec124fb",
        "M_KR": "99b29d26e6d9fc8b6307471d697a277e8775778b9fd8a37373ca620282a0c3f6",
        "M_SG": "bb606bd2a6c71ba7b9ec71bc23caf540d96ee9f38a3567599fef8ba405a455f8",
        "M_SE": "d90fc502443ea74dca267b0639cb552c2b1d47a322f5e49a1735b19bfc5d7424",
        "M_IL": "5423c95420b2861c7c3bbd68cbfa7df46840bfad962ae9b4058b17479a1f8e3e",
        "M_BR": "ef40d7ee02775349b82fa04fe6a7ee12612855478732aa926f5c77db0b902c53",
        "M_UK": "cd07ed4bb354bd1e14e3bc7f07b75f0cd0c87305849b6f4cd71db4c36ef989c7",
        "M_US1": "cac9bf61f0ee2f7359de92176b1653eba6c52addc259d4f2cd023d155aacf9f1",
        "M_US2": "7b1500a20164bde3c99ef81371560004c79a12ca17a7dbba9c333599b81841c5",
    },
    "race_select": {
        "M_TW": "6a58a1d7cfc1b4a34503e0f61dcf533eddfb314a2ced6e835dab35ca068ca7c6",
        "M_JP": "ea2f0ba7e30e3208db03215dece8bdaa5787605aa8f63f212db1927681012be0",
        "M_KR": "f51da6525f0a6e2fe7a837f8dd9121cee3a1932733a2b8fa6b48c42a401bf6db",
        "M_SG": "d282e558a246e8b7039f6018ae60f81913dfcd3a2f8804e7c2bebc092090669f",
        "M_SE": "9698e80f837e82ade55b7ff2c7fdd687a99a284291b151f535095054421a4e8e",
        "M_IL": "02ce936d4001af70d5dbc5aa6555d4e5e8cef17d7d43f834c4f0979d00d46bfd",
        "M_BR": "2c192722c3d7dae038825c2daea2cee0e72ad1820367e161ca80ea28fa03b10c",
        "M_UK": "ac8839393e218f17a8a5ae526f9528815b74711771f180b2b3dcbb7c34009fc0",
        "M_US1": "5b02d3f3f0878c47a29e4a69797fd7ee8953303084dbe67cbf44b844bf2cc662",
        "M_US2": "10a2eac12f49637d4481faf92f3d7b1bec1ddae540975f9a8bb6d11b1f71f016",
    },
}


def test_every_shipped_consortium_is_pinned():
    shipped = sorted(p.parent.name for p in CONSORTIA_DIR.glob("*/config.json"))
    assert sorted(NEGOTIATION_LOGS) == sorted(SYNTH_MEMBERS) == shipped


@pytest.mark.parametrize("name", sorted(NEGOTIATION_LOGS))
def test_negotiation_bytes_and_synthesized_columns_are_pinned(monkeypatch, name):
    log, members = negotiated(monkeypatch, name)
    assert log == NEGOTIATION_LOGS[name]
    assert members == SYNTH_MEMBERS[name]


@pytest.mark.parametrize("name", sorted(NEGOTIATION_LOGS))
def test_negotiation_replays_from_its_logged_bytes(monkeypatch, name):
    # each logged request parses and re-encodes to its own bytes, and the
    # owner's answer to the parsed request, a CurieError taken as an
    # empty "negotiation error" agreement as a consortium run takes it,
    # serializes to exactly the logged answer
    seen = captured(monkeypatch, name)
    owners = {ctx.member_id: ctx for ctx in seen["contexts"]}
    messages, agreements = list(seen["log"]), seen["agreements"]
    assert len(messages) == 2 * len(agreements)
    for sent, answered, agreement in zip(messages[::2], messages[1::2], agreements):
        assert (sent.kind, answered.kind) == ("acquire_request", "negotiation_output")
        assert (sent.sender, sent.receiver) == (answered.receiver, answered.sender)
        request = AcquireRequest.from_payload(sent.payload)
        assert request.to_payload() == sent.payload
        assert request.requester.member_id == sent.sender
        owner = owners[sent.receiver]
        try:
            answer = answer_request(owner, request)
        except CurieError as exc:
            answer = Agreement(owner.member_id, sent.sender, EMPTY,
                               reason=f"negotiation error: {exc}")
        assert json.dumps(answer.to_json(), sort_keys=True).encode() == answered.payload
        assert answer == agreement

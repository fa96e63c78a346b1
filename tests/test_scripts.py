"""The generated move scripts are pinned by digest and replay green."""

import hashlib

import pytest

from flipcheck.collections import (
    Collection,
    apply_move,
    count_objects,
    count_tracked,
    load_script,
    replay,
)
from flipcheck.collections.scriptgen import GENERATORS, Sim
from flipcheck.flagx import x_ext

SCRIPTS = sorted(GENERATORS)
N_RANGE = (2, 3, 4, 5)


# sha256 of each script as a file ("\n".join(lines) + "\n"), for n = 2..5.
PINS = {
    ("even", "full", 2): "bc5a76f989b1ee4f67e9bd539fb2d8ab07b559a1f5d5ede7024545b323d33c03",
    ("even", "full", 3): "addcd80e796a0ad1ff5071e2a40c332338e7623aa107185967a6a92a7fc5d710",
    ("even", "full", 4): "0292422be14aba6dc68a51f5c24a9dc4f4ed1bd6b1e31c36180d5a3de42cc508",
    ("even", "full", 5): "f4ca8552f027dd55ea6ad598e4ee133c3a5cedf26fe43804e7ce4db433ed9de1",
    ("even", "step2", 2): "6a967954de1938b1b132677bac9457a21026c760c57418d931a7e40ef47af274",
    ("even", "step2", 3): "a7b0fbd955177445abcbdd01f3c227036adad515bf5bf9c77af209711fc0e07d",
    ("even", "step2", 4): "743b527221d7cc0fc5105b0dcbe542869f7e6ce0d2bfe75186ad1405b65b617c",
    ("even", "step2", 5): "e334e7b70f7742cd5e553b3406b953f15fa0468255b01977d24994db6047f02e",
    ("odd", "chessboard", 2): "4fb831d8a420c98c152afd9b8b6cbd4bd046e81e40ae43df8571e1dfbb1d8b22",
    ("odd", "chessboard", 3): "74d9a15c5a103ff8dca9f3e54e9f7c03be35853b3f0b60ac84c99feac93854ea",
    ("odd", "chessboard", 4): "a6d85646b10144111acb302cdfb83654c9a9d2964548c1236a83a0b8be5ba605",
    ("odd", "chessboard", 5): "01617b68e20e4eca10a84ebca8603930ffae3fc395facf4b0e73f007e362cd44",
    ("odd", "full", 2): "28e3ce2538bbdfb13e38f424f5f6da77ecd3f55572e2856b9726329235085e69",
    ("odd", "full", 3): "20b840a6f03426dafd20838aab1e57532fc400f2ef821c3903e1715cfc10ade8",
    ("odd", "full", 4): "342b8cbc1f9d577b09b6e55ebb29812cbf692b89747c704929f76c8f38f748d7",
    ("odd", "full", 5): "7a47a40a68fea701e83d7c832c0a09f634c708a98420076863b6430b7eb4782f",
    ("odd", "regions", 2): "6ab62937fbf334708c8539b0e1c2ff9ab41627f5b7e1a00d3bcd46fe8107019b",
    ("odd", "regions", 3): "43b9c4c05b9d9f2c48d35eedffef5574391fe494c539217618fed94b9ff7c69d",
    ("odd", "regions", 4): "7ef10a4eedbc7dd8a65389189e24bf6ec89d3e1b3e9a1b7322ec4662f655af4c",
    ("odd", "regions", 5): "007b2d6c85530730e71f0381335b3c2190983ab92ee01360e3791147850b40b1",
    ("odd", "step1", 2): "462265c0b52f33aa2d79379221a90467fa23b43f42438d340d5c3d7195e8618e",
    ("odd", "step1", 3): "f625c126e526c19aed7be9f0d61a95248453a441207ec30d160bf8167c40390a",
    ("odd", "step1", 4): "01e1e9e13a5f7296d4330a4fa910e282e6e9f9cb8682827a7c3083ad159aaa71",
    ("odd", "step1", 5): "7a44bee5cc9212928547afd6fb1cf02194bd14f80ca9ce26cfeeccf597404d3f",
    ("odd", "step2", 2): "36012f0deda9c74d7dced90abbbbf45d4551894f84d070fa9f5768db6ebefc6b",
    ("odd", "step2", 3): "bb286f4652a7291cc8f2853ea4eee170991e66c299ee5c72830409a81bd2245f",
    ("odd", "step2", 4): "3873ffc483d0ae08abb613c2a4305b3cc0fd53b1e7cf4baf1e276ce9153804ec",
    ("odd", "step2", 5): "4aedcfef32e8d291576eab7dafee797a4955cc0b16b43a89d49a83199f2fc6fd",
    ("odd", "step3", 2): "4b32bc41bf63eee23c80b50e78f9910a6fb308a58173cf63b4e31ee7ff3c47ef",
    ("odd", "step3", 3): "f96d2a82a64c72610c7db7559ce2f3226554ba6a4d5ff6a3cd280e5af35fb0a7",
    ("odd", "step3", 4): "50998c3eb058278ec74d4102e40eb728d0633b06fa1a83f6685f6d46a71d5ca5",
    ("odd", "step3", 5): "cbf5023924d9faa1a3e01553c7add5d0d5d8d6dd79a4fdb22886d467536e46e1",
    ("odd", "step3b", 2): "8b77eb5e688490cf59c959200d86c93384179cce080b71da593bf30a4bcc0392",
    ("odd", "step3b", 3): "b6d51e981fd45fc43ee476db2d31384c0206cd9e045407d26a268d462d84ef79",
    ("odd", "step3b", 4): "2341fbf2491bdf5512e24fe9c6adace8cad007533be17feed7810613db189597",
    ("odd", "step3b", 5): "27bb6c3cb9795cf6ad0e21b6df2bd43e595c5d99af8b92f58f57d3dfe3d04607",
    ("odd", "step4", 2): "48eed8d81baf743c51ee2827ac562c4ba75e114988747b7d519f57db5be65c56",
    ("odd", "step4", 3): "20ae2e293a174ce042126a318b1a0611a0e3dae16b3fc63612d0ed76a8f9596c",
    ("odd", "step4", 4): "03762f23057290915549c7f68383575b4143c85c8ac4f6e632cb80336c8273b0",
    ("odd", "step4", 5): "fbf6c8dd4e470e3c618feeae92cb8ab8916cab5ba5ac045f58ac9be40980e8d0",
}

# sha256 of the concatenated script files for n = 6..9, one per generator.
PINS_6_9 = {
    ("even", "full"): "2f1d13f0b5d4eb6d9f496b0fd5a7a62dbb7fec0296f3e5886735bdc3469f1621",
    ("even", "step2"): "19ed5b3b7f6e52b1c8f2f5771df39cfdf3910c2fe3ea28eda8c4237f8e9d04d7",
    ("odd", "chessboard"): "997a7582fd44529aab31ec574a17b3a59cd7f9353e006ab3b3a5796f7de8b3f9",
    ("odd", "full"): "0e48c14d9d86b41c67f7ee895ef151d6b35009717870ced83be7e01b750bf404",
    ("odd", "regions"): "54d6eeffa80ddda14b6fe9d9395cb3142d9be522f4ca64e55fa7683cde7c03c9",
    ("odd", "step1"): "098a979ba08189a7bbddaaf5cc7353658eee296de63bf5bb8194b56add0e78ca",
    ("odd", "step2"): "0630c33edbdcc28cd0092a6fe36b84db8718d20438065db118950669a6bf2dbe",
    ("odd", "step3"): "29a3baaf866bc2fb2d8aad17773b9e92e98a26aaec0580677522ffbf9106a9f5",
    ("odd", "step3b"): "d577d7440ea32597647ed5703c022b30f22a8506d4526f4c5c01b44887a27755",
    ("odd", "step4"): "168409b923ee72cdca9d5d3d5ff9ec083c827dbd200d9cc9b22b78ad0c594792",
}


@pytest.mark.parametrize("parity,step", SCRIPTS)
@pytest.mark.parametrize("n", N_RANGE)
def test_shipped_scripts_match_generator(parity, step, n):
    # The committed digest is what ships; a generator change must update it.
    lines = load_script(parity, step, n)
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == PINS[(parity, step, n)], (
        f"script ({parity}, {step}, n={n}) changed; new sha256 {digest}"
    )


@pytest.mark.parametrize("parity,step", SCRIPTS)
def test_scripts_match_generator_beyond_pins(parity, step):
    h = hashlib.sha256()
    for n in range(6, 10):
        h.update(("\n".join(load_script(parity, step, n)) + "\n").encode())
    assert h.hexdigest() == PINS_6_9[(parity, step)], (
        f"scripts ({parity}, {step}, n=6..9) changed; new sha256 {h.hexdigest()}"
    )


def test_script_generation_looks_up_each_run_once(monkeypatch):
    # A run of exchanges finds its object once, not once per exchange.
    calls = 0
    idx = Sim.idx

    def counting_idx(self, obj):
        nonlocal calls
        calls += 1
        return idx(self, obj)

    monkeypatch.setattr(Sim, "idx", counting_idx)
    exchanges = sum(
        line.startswith("exchange") for gen in GENERATORS.values() for line in gen(8)
    )
    assert calls < exchanges / 2


@pytest.mark.parametrize("parity,step", SCRIPTS)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_scripts_replay_with_oracle(parity, step, n):
    n_amb = 2 * n + (1 if parity == "odd" else 0)
    res = replay(Collection.empty(n_amb), load_script(parity, step, n))
    assert res.ok, (res.failed_line, res.error)


@pytest.mark.parametrize("parity,step", SCRIPTS)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_scripts_replay_strict(parity, step, n):
    # Walk the script structurally and ask x_ext directly, outside the engine,
    # that every exchanged pair is mutually semiorthogonal.
    n_amb = 2 * n + (1 if parity == "odd" else 0)
    col = Collection.empty(n_amb)
    for line in load_script(parity, step, n):
        if line.startswith("exchange"):
            i = int(line.split()[1])
            a, b = col.entries[i].obj, col.entries[i + 1].obj
            assert x_ext(a, b, n_amb).is_zero() and x_ext(b, a, n_amb).is_zero(), line
        if not line.startswith("#"):
            col = apply_move(col, line, check=False)


def test_full_replay_counts():
    for n in (2, 3):
        res = replay(Collection.empty(2 * n + 1), load_script("odd", "full", n))
        assert res.ok and count_objects(res.final) == n * (2 * n + 1)
        res = replay(Collection.empty(2 * n), load_script("even", "full", n))
        assert res.ok and count_objects(res.final) == n * (2 * n - 1)
        res = replay(Collection.empty(2 * n + 1), load_script("odd", "chessboard", n))
        assert res.ok and count_tracked(res.final) == 4 * n * n - 1


def test_empty_script_is_identity():
    col = Collection.empty(5)
    res = replay(col, [])
    assert res.ok and res.final == col and res.moves_applied == 0


def test_replay_fails_fast_and_reports():
    res = replay(Collection.empty(5), ["expand A at 0", "exchange 0"])
    assert not res.ok
    assert res.failed_line == "exchange 0"
    assert res.moves_applied == 1

"""Pinned `bohemian verify` output.

Each row records the exit code and the sha256 of stdout of
``bohemian verify --suite SUITE --budget BUDGET [--allow-known-gaps]``.
Any change to which cases run, how they are labelled, or what they find
changes a digest; a deliberate change re-records the table.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from bohemian import matrices as mx
from bohemian import verify as vf
from bohemian.cli import main

# suite budget allow_known_gaps exit_code sha256(stdout)
PINNED = """
all 8 0 1 55b49477698f4b6d0c8d31d13b2952a19341446bc98ad80217f5890fc87edd75
all 8 1 0 853a6533fec9e9ffe99b9c2759753e91fb9bc25ce2e2f27705657fbf9babbfa5
all 9 0 1 b48f7b33ef4c7230320bda03dfd49fdcf1866be27dc1b5d1a531b9c2113b46e3
all 9 1 0 cc9bdaaea265531bb3acd64531c70afca6b83fe602a37e04d4f690203bb1dc5c
core 0 0 0 71f77e4da0637ea4aeb0a4393be2a3f48ff5615603f39c2f671d529f9933c8e0
core 0 1 0 dfb9ade4eca2786c43f5fff1274e30759e95ef7e010bc3cb1a74873fa7a8555e
core 1 0 0 2b4f6023d74cedb62d20012ef9b65fa972687597a45beb412f355df325bfaa3f
core 1 1 0 5b4e148b078d3a5fe96eb7d686e7884bd08a12f9318e5eb00b1349a9629f26d6
core 2 0 0 4f5a6f840255bb2d5db3a29c6247b1ffbc3d631e46f3ad255838467d0adcbbe8
core 2 1 0 b973357556df3ea0dc5152bb1f6de869f1397e2141b55134cb9b7a261c9a838d
core 3 0 0 aabfbe0f726a3e24778cc3dcf70fcb96e883251e57f0adfac9c0528a8feb6cbc
core 3 1 0 4be825a800edab10f4caa006e5fd7c7ea3d2552936edf134d6d8b4c3d7ab3160
core 4 0 0 fda00f4312a63c698e8bf2dd9e135c5ee47fbebb856d298c390f98c797935df8
core 4 1 0 9f91f6bb3276ce744dcaa640ca401619c374f42bde1025324a702cfce54f706c
core 5 0 0 ba866bf8046aff8b62212cc192125aee60cf0004487f7bfb54e45d2d65e9effd
core 5 1 0 9fbcf084dd9b650e86f2c912e9105cb80fbca14e8b2e21438f2f1495e20c645b
core 6 0 0 04eca0d87db80cbda98f7465495d963ac0324ea9080a1c732b5a9c4cd23fea93
core 6 1 0 8441c8049044c6c5238ebcac107f99e8f8d5a825763d00416d6841141dc625f8
core 7 0 0 820b27ea77b827217d35ae45fde929d57d6c91b43e3e464bcb11cf563b0d547f
core 7 1 0 ba85f08aca338ee4c85689b85242ad9b3f91655acbd7ca32081fcf8170b6adbd
core 8 0 0 6caff6d391c3a95c7bf1d3748b6868fe2f27f7c393badfc858bad7b62ce04819
core 8 1 0 0727201ee3b51b7df33ac37401ed4f533e1251b3c06efaefb9b5cec77f3a8097
core 9 0 0 4968c96d39241fe6b624702ee1dcefda85920c52340dc82cca2095983c9602c9
core 9 1 0 414e3ca3f25ff531cd3fc397b2da79b67dbc492eb5133ac9806bb21fe1e22ac7
counts 0 0 0 5a8dcdd9428241ae83b02de59c9f2144e430d11a1eab6ed2c3758c02d5f0ee97
counts 0 1 0 0cb255a08b2a9e0e15c54efcf15cdd97d787606543700f74da4b29965b261077
counts 1 0 0 c70a628cba1aa6842cc54d8403b003b98b32ce5857268e0a0b3b87c80373c5df
counts 1 1 0 edb0c10ba4c4220544fca15ee13479a1720adb495125c3ffb5f033378c65d6cc
counts 2 0 0 cb76fa0f1f9480d518c640c7eed6aa66da35f447dce2a8387c5fbfa1f1eddf93
counts 2 1 0 4071c0e5fe6480eebc51446a2284d6c987bfc156e7dbcce5b178fee89406a42c
counts 3 0 0 6e53ec65fb755743c3de61b233e38780e0b8f35adac2c553a69be938177e90be
counts 3 1 0 3b50f5a4611ee528a4fa0dc08d7237fa58b8286219b584027d8bc0d28bdc3a9f
counts 4 0 0 a2bbf432189521f1d4e22d7eee6c42fa8e69b8f972dc7fe77f1d9039b526e516
counts 4 1 0 379f20edcc0c2aa1a1db9c87b7be93e49a4605f44cfc7767affdea3598354751
counts 5 0 0 0d1665283f287ae495f00383284c723468388c976304c91dfaa22459db13cd42
counts 5 1 0 d130a880271f77be3494a80fa1f4f240da8d8a6a1be71f5e6ce9db9d38d73cab
counts 6 0 0 173bde2223e8b912b411658d470968eb13af4873a40056e8a79166aaa13caa22
counts 6 1 0 3c760ee46dcc8bc52ff286cb517490d0ce677ccee4d9a89a13e287d3bc50dddb
counts 7 0 0 e03b38c5f7d0ad90f1dc9506eb0285c931f78352c2f47b3ad4d3e4e1e337ffbf
counts 7 1 0 d2640f35fa5cc68fcb2b56154c20dc5277d2c335402d9d79227623bbb113cbf2
counts 8 0 0 f3d8f0623d5114b7928da8d16bbb3738b71e6c245b7a4cfce8f375413f03acd7
counts 8 1 0 64d1a3aa9f8a5ee722a60dcd0e911a7facd00815cde3f2c045dff7b6d4208d03
counts 9 0 0 a103d39ca5697c7cb089f6b8b19ca3f7beae60ffec528f7218761cf911a60799
counts 9 1 0 7b31eedf323ee8f5555337f924108b454ea6a84149162cc9597ad9055f09ce75
inner 0 0 0 2bc35c556f1ad87de3c82a02c450d87cb8536f2deb35afae1a15de3ecb807819
inner 0 1 0 47b21f9f66a1e049ba0617341c226118f9a58b1db625c6316d261ed8bdcae6df
inner 1 0 0 0744b4b674f7ad03b45444b51e8ea4ed9fc4690a2360e3a7b4ca0983ca82b36a
inner 1 1 0 25d2e51bc5d86fde0c1f08952a5a15aa407c26a191209ca4ec1d2c4e88cd0e3f
inner 2 0 0 7d5e0dbcd02f968d25282b02d972600cd97dd2b963ad9b40e8bd82e74d02fc45
inner 2 1 0 b624551c5164d89c21a8e615d60ee8216536ff522ef087f8b168be2d2f6439d0
inner 3 0 0 84e91f992b000e9933383a9ea7087492b385042cfac57325a43c363fe63b7103
inner 3 1 0 5d0b5247d1b1b85758d2768e5ce99c64b418a38de68dd7f615f54d014447937a
inner 4 0 0 e274451fe60a1848d210cd170c384c986ffc2a8a56c6b00da66c5ab0c98e2012
inner 4 1 0 76065b2bd66ae44499b6134cd976f744816c898432133d16f9fdc74efc8f7eb1
inner 5 0 0 9f5a26c8d572b12d6fdaba832a9a5cbe7ba0417188894f0ee8e3a25651b49158
inner 5 1 0 fa1a043a0f3dd06ae902ad641ad3df18233d8f82f6bc630d50a94484d96071d6
inner 6 0 0 3f59dac4041aadf072d72f58fb84a364a153cb0d906662843701923743352e44
inner 6 1 0 5fabeea372c6f7bf35d9ca1b3f881952f8174c9013660fa8cb888f083f2a155d
inner 7 0 0 2d6728d7253ea9bfa6a57e8dbc1da46643d0915956af9c09718fd23ff9a2ed75
inner 7 1 0 05cd0c3b72b29556e8aa03f872258542297ec27e2b5ef7fb9f94984bc519ce43
inner 8 0 0 07e1427e8bf45738e7f05abcc202dfb20ab1547bea36fa4965b3bd9bab5fb1c3
inner 8 1 0 3ddd944bfb51a3cb0dd72c98c45192310156122f0be13e10eca968f898867202
inner 9 0 0 47981e969d7e1d8a3ac7682e6dd5931e2656ddce355c32630adaf8643d3be00c
inner 9 1 0 5982684754d289818c32f2496a8a5b90baa24f9e86fa1dc95c3b275d412bbe15
outer 0 0 1 efea8d8eb2cce9d8690ba203be2dde908414a7895805102066b11939db9c74ec
outer 0 1 0 20eb54b3bef1bedf646dc58321f8ac043690b7f97ac5775cd51b3bb25b9e0a29
outer 1 0 1 331c224950a0c7292c5a661c25124fb825e1df8851e3efba5e5838f8b2b5843d
outer 1 1 0 68ea6de6a6b0188205350516e9a97c8922e9f4d8a2eec6a56d45cd615b82e241
outer 2 0 1 0260c6304926cd395b13f8776351e0963235f15cc6e2b756e191c3d0279323a2
outer 2 1 0 dcb90b446939010e2156c9169057225867b05a4b9c78ca5921091f3079e38426
outer 3 0 1 e469dd889a77c9c31c04de1fb2954701c832121ac323f8881bbecd8c26870a9e
outer 3 1 0 d6c2cb1c65776e47cf750468548d80cb40a337636e15f5ed9f5fbf7f3e9d2322
outer 4 0 1 20f8e85686264994d7b8e9326324d34b5d52590c35b423b22f78dc759f74fd62
outer 4 1 0 c03191b8aafca059c54966a745df96a5723d0a0d71967131f35529bb0f78565d
outer 5 0 1 6043c5c968316f855baf244c13021eecc8cb0cc5e8b425b045805d47da22a65c
outer 5 1 0 2ea02174b2d1b10b5d30395e0a9587594432278a3b6992934ff886de5adb0762
outer 6 0 1 7f4d111197552f586682784c0b6f81910d508194a072c24e242c9b5c2c9bcc89
outer 6 1 0 b34c75cc865e7a41e1650c0efb5d52079ed9f9590ffa4b43e4d11fdcbb034db1
outer 7 0 1 9a4c56a8578fdd1fdc1bd9a5d79368822761ebea49c6a17e80d91fb6707a754c
outer 7 1 0 e0ac3dc14ff05bb6c21ea73cf83058eb7f2f62dbe076a6fd63230cdd6e95d8f5
outer 8 0 1 d23f63388c8ca0697f1d0c8a9f7a9dca07fbc5d0b2ddd6874eac8e6639906518
outer 8 1 0 0c9e3fba4292e1b8eaaf2015552f301303a04b33554fc7b02e76ccfce46a5ed3
outer 9 0 1 d20bf689aa4f75e2c674590c831651d319a1da9afbe3ba7909eb6fd4cb2326f5
outer 9 1 0 2d41c439e55064065ce9c5895b066aa72535b467dff437eaf0bf89a595f42dfe
"""

ROWS = {}
for _line in PINNED.split("\n"):
    if _line:
        _suite, _budget, _flag, _code, _digest = _line.split()
        ROWS.setdefault((_suite, _flag == "1"), []).append(
            (int(_budget), int(_code), _digest)
        )


@pytest.mark.parametrize("suite,allow_known_gaps", sorted(ROWS))
def test_verify_output_pinned(capsys, suite, allow_known_gaps):
    mismatched = []
    for budget, code, digest in ROWS[suite, allow_known_gaps]:
        argv = ["verify", "--suite", suite, "--budget", str(budget)]
        if allow_known_gaps:
            argv.append("--allow-known-gaps")
        got_code = main(argv)
        got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        if (got_code, got) != (code, digest):
            mismatched.append(budget)
    assert mismatched == []


def test_outer_skips_lemma_2_4_below_its_cells():
    # the 2x3 zero-column stacks of Lemma 2.4 need 6 cells of budget;
    # below that only the two known-gap cases run
    out = vf.suite_outer(0)
    assert out.cases_run == 2
    assert [d.theorem_id for d in out.discrepancies] == [
        "OuterRank1FullRowRank", "Thm5.19",
    ]


@pytest.fixture
def corrupt_plan(monkeypatch):
    """corrupt_plan(name, wrap) replaces the kernel's plan builder ``name``
    with ``wrap(builder)``; every plan cache is cleared on entry and exit,
    so that ``multiply``, ``penrose_check`` and a direct plan call all see
    the fault."""

    def clear():
        for cache in (mx._product_plan, mx._entry_product, mx._penrose_flags):
            cache.cache_clear()

    def corrupt(name, wrap):
        clear()
        monkeypatch.setattr(mx, name, wrap(getattr(mx, name)))

    yield corrupt
    monkeypatch.undo()
    clear()


def _shifted_products(plan_of):
    # output entry 0 gains 1 when entry 1 of the left factor is nonzero, on
    # every shape whose left factor has two rows or more: a fault that
    # depends on where an entry sits, and leaves the census's one-row
    # plans alone
    def plan(m, k, p):
        real = plan_of(m, k, p)
        if m < 2:
            return real

        def shifted(a, b):
            out = real(a, b)
            return (out[0] + (a[1] != 0),) + out[1:]

        return shifted

    return plan


def _flipped_flags(plan_of):
    # AXA = A reads flipped when entry 1 of X is nonzero, so no 1x1 shape
    # is touched
    def plan(m, n):
        real = plan_of(m, n)

        def flipped(a, x):
            flags = real(a, x)
            if len(x) > 1 and x[1]:
                return (not flags[0],) + flags[1:]
            return flags

        return flipped

    return plan


def _failures(*outcomes):
    """(theorem id, instance) -> bad, for every failed case."""
    return {
        (d.theorem_id, d.instance): d.family_count
        for out in outcomes
        for d in out.discrepancies
    }


def test_a_faulty_product_plan_fails_the_product_sweeps(corrupt_plan):
    corrupt_plan("_product_plan", _shifted_products)
    failed = _failures(vf.suite_core(7), vf.suite_outer(7))
    for n, r in itertools.product(range(1, 4), repeat=2):
        if n * r <= 7:
            assert failed[("AllOnesProducts", f"inner shape {n}x{r}")] > 0
    assert failed[("Lemma2.4", "2x2 blocks, one zero column")] > 0
    # the Penrose sweeps form no product through these plans
    assert not any(
        theorem in ("PenroseDefinition", "TransformInvariance", "RankTranspose")
        for theorem, _ in failed
    )


def test_a_faulty_penrose_plan_fails_the_penrose_sweeps(corrupt_plan):
    corrupt_plan("_penrose_plan", _flipped_flags)
    failed = _failures(vf.suite_core(7), vf.suite_outer(7))
    for shape in ("1x2", "2x1", "1x3", "3x1"):
        assert failed[("PenroseDefinition", f"shape {shape}")] > 0
    for shape in ("1x2", "2x1"):
        assert failed[("TransformInvariance", f"shape {shape}")] > 0
    # a 1x1 X has no entry 1, and the product sweeps check no flag
    assert not any(
        instance == "shape 1x1" or theorem in ("AllOnesProducts", "Lemma2.4")
        for theorem, instance in failed
    )

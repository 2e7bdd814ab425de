"""Byte check of the CLI pipeline: the sha256 of every file the commands write.

simulate → run b1/b2/b3 → eval → bench over both builtin procedures and
the 15-component procedure of ``helpers.maintenance_spec()``, written as
a procedure file, at fixed seeds. A change to any reader, writer,
recognizer or metric that alters one output byte fails here, so
"byte-identical outputs" is a test rather than a claim. After an
intended change of output, print ``_pipeline_digests(tmp_path)`` and
paste it into PINNED.
"""

from __future__ import annotations

import hashlib

from helpers import maintenance_spec
from psrkit.cli import main
from psrkit.formats import write_procedure

WIDE = "wide_maintenance"  # maintenance_spec()'s id, read from <root>/wide_maintenance.json

# (procedure, seed, extra simulate flags) per simulated recording
RECORDINGS = (
    ("industreal_car_assembly", 3, ()),
    ("industreal_car_assembly", 7, (
        "--omit", "install_front_bracket_screw", "--incorrect", "install_rear_chassis",
        "--swap", "0",
    )),
    ("industreal_car_assembly", 11, ("--noiseless",)),
    ("industreal_car_maintenance", 3, ()),
    ("industreal_car_maintenance", 7, (
        "--omit", "refit_rear_wheel_assy", "--incorrect", "install_short_rear_chassis",
        "--swap", "1",
    )),
    (WIDE, 5, ("--incorrect", "install_part2")),
)
BASELINES = ("b1", "b2", "b3")


def _run(argv) -> None:
    assert main([str(a) for a in argv]) == 0, argv


def _pipeline_digests(root) -> dict[str, str]:
    """Run the pipeline under root; sha256 of each written file by relative path.

    The ground-truth copies that bench needs beside each baseline's
    predictions are left out, as they repeat simulate's file.
    """
    for directory in ("eval", "bench"):
        (root / directory).mkdir()
    write_procedure(root / f"{WIDE}.json", maintenance_spec())
    spec_args = {WIDE: root / f"{WIDE}.json"}
    for spec, seed, flags in RECORDINGS:
        runs = root / spec
        spec_arg = spec_args.get(spec, spec)
        _run(["simulate", "--spec", spec_arg, "--seed", seed, "--out-dir", runs, *flags])
        rid = f"{spec}-seed{seed}"
        for baseline in BASELINES:
            pred = runs / baseline / f"{rid}.pred.jsonl"
            pred.parent.mkdir(exist_ok=True)
            _run(["run", "--baseline", baseline, "--spec", spec_arg,
                  "--stream", runs / f"{rid}.stream.jsonl", "--out", pred])
            (pred.parent / f"{rid}.gt.jsonl").write_bytes((runs / f"{rid}.gt.jsonl").read_bytes())
            _run(["eval", "--spec", spec_arg, "--gt", runs / f"{rid}.gt.jsonl", "--pred", pred,
                  "--out", root / "eval" / f"{rid}.{baseline}.json"])
    for spec in {spec for spec, _, _ in RECORDINGS}:
        for baseline in BASELINES:
            for fmt in ("csv", "json"):
                _run(["bench", "--spec", spec_args.get(spec, spec),
                      "--runs", root / spec / baseline,
                      "--out", root / "bench" / f"{spec}.{baseline}.{fmt}", "--format", fmt])
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and not (path.parent.name in BASELINES and ".gt." in path.name)
    }


PINNED = {
    "bench/industreal_car_assembly.b1.csv": "88e81d6bb3ed7f5a7f86fff07c31256c7b5596c24018ba14ebd59d57ae59d52d",
    "bench/industreal_car_assembly.b1.json": "9843c9295c6cacbb4d90e9a03609eb563ebe58457228283b2d592d2d2357c319",
    "bench/industreal_car_assembly.b2.csv": "1cef56944bfc80a565bcb3fd4065c31ed3d34ff172c9b6ed285f1550cde31a36",
    "bench/industreal_car_assembly.b2.json": "dd171bbe45583e811553fcddfe0929de2611ab32b45edf40c1be5d048f2e8922",
    "bench/industreal_car_assembly.b3.csv": "940639ef6ecf1d48467ddaa59a0432c7b2183c099c8038495c4c54157e630b65",
    "bench/industreal_car_assembly.b3.json": "1fc9e0a43ad4211cf346875d2f9c871c9a8bee4a5e20bf38fa647c37933a63ca",
    "bench/industreal_car_maintenance.b1.csv": "2c6466256c5239b8b68fcb323b5b886f20d832abac01ac0ffb03cce6cd29b5fb",
    "bench/industreal_car_maintenance.b1.json": "9169adfb8f48da6df2db05f41a3e539e89227d0108c859576ecaca8aaad2ac80",
    "bench/industreal_car_maintenance.b2.csv": "905c381b7ec66e954453deba438e4198df333039b4382768b5cda58edfdaf380",
    "bench/industreal_car_maintenance.b2.json": "49ca1b8c8abb9570685baef6a4c755847cc726c6f80a56690b0573b091624966",
    "bench/industreal_car_maintenance.b3.csv": "905c381b7ec66e954453deba438e4198df333039b4382768b5cda58edfdaf380",
    "bench/industreal_car_maintenance.b3.json": "49ca1b8c8abb9570685baef6a4c755847cc726c6f80a56690b0573b091624966",
    "eval/industreal_car_assembly-seed11.b1.json": "2c1ef9a78ac238189096f3705b7bdc5b46bfa76a39bb6c54178c03cdbdc58092",
    "eval/industreal_car_assembly-seed11.b2.json": "9444bbeea2a9372ce9054a2f8b593f5d2ba22f0e38f1af5c2047dba2fa23c905",
    "eval/industreal_car_assembly-seed11.b3.json": "9444bbeea2a9372ce9054a2f8b593f5d2ba22f0e38f1af5c2047dba2fa23c905",
    "eval/industreal_car_assembly-seed3.b1.json": "dc13e31fe69c444e6f88043d3df2460bbf20f001395980a3c9c9df4d75dc63b6",
    "eval/industreal_car_assembly-seed3.b2.json": "09222a7c151b70b78423e05a6e40a3bd8007a617a3ae5637069ad63e38734546",
    "eval/industreal_car_assembly-seed3.b3.json": "09222a7c151b70b78423e05a6e40a3bd8007a617a3ae5637069ad63e38734546",
    "eval/industreal_car_assembly-seed7.b1.json": "4a363b2b8835efcaf49b4f7f622c2df38461c2706dfbbe97443cb0fa6fe57114",
    "eval/industreal_car_assembly-seed7.b2.json": "15ae96ae0b202cf597c69d5eff507e3ac087e4b468318bf06b4e910feba1cb22",
    "eval/industreal_car_assembly-seed7.b3.json": "51054c5a3e9e26e8530c7081a32246cff2f80a97d07fa5c09d063bbdecebda47",
    "eval/industreal_car_maintenance-seed3.b1.json": "b66171e8c12b4d71c29661a3b465febdae521a11d3b597a3bd987b2b4cd394fb",
    "eval/industreal_car_maintenance-seed3.b2.json": "6367931d8bc5dbf8e326dd02473ef94b812f2d4ba6b6c776ba50d112ee0ee37c",
    "eval/industreal_car_maintenance-seed3.b3.json": "6367931d8bc5dbf8e326dd02473ef94b812f2d4ba6b6c776ba50d112ee0ee37c",
    "eval/industreal_car_maintenance-seed7.b1.json": "473cfb69b2889c54aaf3995ef44a4bb94bb222ed94ea57e3ff94aa3a061a1b42",
    "eval/industreal_car_maintenance-seed7.b2.json": "5f0554cb063e3cc0357b3bf08450c92cd3163fcd64ab0413ce73cfe365bbdcb0",
    "eval/industreal_car_maintenance-seed7.b3.json": "5f0554cb063e3cc0357b3bf08450c92cd3163fcd64ab0413ce73cfe365bbdcb0",
    "industreal_car_assembly/b1/industreal_car_assembly-seed11.pred.jsonl": "c3de709f013ce1ab1df0fe69eab1b404f1a02418beaf366689402daf0c5c02ee",
    "industreal_car_assembly/b1/industreal_car_assembly-seed3.pred.jsonl": "640984f76f6ee0c1327b1c761ce6e020a87af7e6101f0eaea57dfe81c5938d45",
    "industreal_car_assembly/b1/industreal_car_assembly-seed7.pred.jsonl": "c4392a98edc7384a52fdb3ab8c30d1310832d155a77aa86af02bfdbe650f0338",
    "industreal_car_assembly/b2/industreal_car_assembly-seed11.pred.jsonl": "21876f57ffc67af1dc657b803bf538168df055b9644bad251dbb66cb8320d71f",
    "industreal_car_assembly/b2/industreal_car_assembly-seed3.pred.jsonl": "b55798c05eed9c4aa23db7370c74a80ce564b3725cd4b3e51fd7fb477ef4db43",
    "industreal_car_assembly/b2/industreal_car_assembly-seed7.pred.jsonl": "ed613ac7cec2b1f5a0be563a2d3f85118b45632269efe44e747cd4890b66affe",
    "industreal_car_assembly/b3/industreal_car_assembly-seed11.pred.jsonl": "21876f57ffc67af1dc657b803bf538168df055b9644bad251dbb66cb8320d71f",
    "industreal_car_assembly/b3/industreal_car_assembly-seed3.pred.jsonl": "b55798c05eed9c4aa23db7370c74a80ce564b3725cd4b3e51fd7fb477ef4db43",
    "industreal_car_assembly/b3/industreal_car_assembly-seed7.pred.jsonl": "4e5d862697b9de73813d3e9a6522e4be01dc74d59509302f702f12cf03102b92",
    "industreal_car_assembly/industreal_car_assembly-seed11.gt.jsonl": "a3a4debc335e8ee38ca370d2b24ef6d43d917e78370805215bf86f1a0ccbcc08",
    "industreal_car_assembly/industreal_car_assembly-seed11.scenario.json": "95e993bf5b93d8010b85e6a74bc99449ff4e09c5857b13da3d15a2aba0686eba",
    "industreal_car_assembly/industreal_car_assembly-seed11.stream.jsonl": "750fe460fcda06689fed4a9e1117163f0666825bde8ec8908036b8b9e581a80b",
    "industreal_car_assembly/industreal_car_assembly-seed3.gt.jsonl": "4c4131f0f6bee2a2d3f311e05bbdeb4878f0e39755b39f2eff8ccbb1c1f54031",
    "industreal_car_assembly/industreal_car_assembly-seed3.scenario.json": "78b36590e424843ce0809d2e366e032638a93407d01aeff8c8c3d5f8caf90b89",
    "industreal_car_assembly/industreal_car_assembly-seed3.stream.jsonl": "4dfb71fc6b6edb7a11a6ef40100b82042bf7ea0b88862e1aad85be9e59ef8d1f",
    "industreal_car_assembly/industreal_car_assembly-seed7.gt.jsonl": "56395aca608098e4008b8b07767f72135fb626eb80dbd80849c02f31282ed538",
    "industreal_car_assembly/industreal_car_assembly-seed7.scenario.json": "e6368971559d766a9a3d65e5a5807c4d5c5fbdf229e5771ce5fc723c0d109879",
    "industreal_car_assembly/industreal_car_assembly-seed7.stream.jsonl": "9afb97804ff7b612d697f2cbaba3f507875f68f276f2dd539d764581b0e7cd3d",
    "industreal_car_maintenance/b1/industreal_car_maintenance-seed3.pred.jsonl": "54d32bd2a7f12a4b95e4c79c3e8cde6a38a2ca358c4fd1f0a5813fe3274c6ebc",
    "industreal_car_maintenance/b1/industreal_car_maintenance-seed7.pred.jsonl": "777f91e69ac6c0a542b07379124f126a8363c2f6e3b570633d1dc2bc621cf5e6",
    "industreal_car_maintenance/b2/industreal_car_maintenance-seed3.pred.jsonl": "e0c5f520a31313b6f4e6bbc577ec0e1e09c8d5c2fa72e787f9cc5cd34808226d",
    "industreal_car_maintenance/b2/industreal_car_maintenance-seed7.pred.jsonl": "bb4e6ecd796dd81d66c61603e706a097b8aed24bf0208709bfdbaf35121f8c81",
    "industreal_car_maintenance/b3/industreal_car_maintenance-seed3.pred.jsonl": "e0c5f520a31313b6f4e6bbc577ec0e1e09c8d5c2fa72e787f9cc5cd34808226d",
    "industreal_car_maintenance/b3/industreal_car_maintenance-seed7.pred.jsonl": "bb4e6ecd796dd81d66c61603e706a097b8aed24bf0208709bfdbaf35121f8c81",
    "industreal_car_maintenance/industreal_car_maintenance-seed3.gt.jsonl": "b9c05b0c3b9cd65ccbc0d14131c4894901b0cf6bdea3dc5b80cafc8807be2c36",
    "industreal_car_maintenance/industreal_car_maintenance-seed3.scenario.json": "fa871357970967e2ac7da3f3856fd2079270fbe3b89d6dde7ce1df6e5f4df527",
    "industreal_car_maintenance/industreal_car_maintenance-seed3.stream.jsonl": "61671f2a7fbb4787107f9f010aa96f1374bcf2f7f10077e996650cccc1eb1e20",
    "industreal_car_maintenance/industreal_car_maintenance-seed7.gt.jsonl": "e7c2af203f00e1b7c7289c308a1f92670576d171d1257a28fb5831c618d07a54",
    "industreal_car_maintenance/industreal_car_maintenance-seed7.scenario.json": "9f7ce1570f555122048777b9427e1e3191a0782cb6e52efa3388ba81d7ae2ebb",
    "industreal_car_maintenance/industreal_car_maintenance-seed7.stream.jsonl": "f3e7d528a83fd56e7a68091b042807ddc53fd8ebb89f81f072d6d5064ea6300c",
    # the wide procedure file and its recording
    "bench/wide_maintenance.b1.csv": "85adb2e90c354c4f2cd2d913a132ff4663ef2b8bb58e72d8b11bacc309f3f1da",
    "bench/wide_maintenance.b1.json": "fa8f140f259afec3f73d8f15065faed494fe772c3f1c922663f6e7a2c3375679",
    "bench/wide_maintenance.b2.csv": "d6c89d81e169509ae2a547a70cd994ee1c49b6ee98483b6aa9bceeb9fc55f2a2",
    "bench/wide_maintenance.b2.json": "4817562a333faaef317d9eb8ecca53934ac4b3a2abb786bc32c962edf3141788",
    "bench/wide_maintenance.b3.csv": "d6c89d81e169509ae2a547a70cd994ee1c49b6ee98483b6aa9bceeb9fc55f2a2",
    "bench/wide_maintenance.b3.json": "4817562a333faaef317d9eb8ecca53934ac4b3a2abb786bc32c962edf3141788",
    "eval/wide_maintenance-seed5.b1.json": "fa8f140f259afec3f73d8f15065faed494fe772c3f1c922663f6e7a2c3375679",
    "eval/wide_maintenance-seed5.b2.json": "4817562a333faaef317d9eb8ecca53934ac4b3a2abb786bc32c962edf3141788",
    "eval/wide_maintenance-seed5.b3.json": "4817562a333faaef317d9eb8ecca53934ac4b3a2abb786bc32c962edf3141788",
    "wide_maintenance.json": "589c4e485a81b9042de899e5d975f5ffc3f5e4cbcf2377e0e938cc621b55c375",
    "wide_maintenance/b1/wide_maintenance-seed5.pred.jsonl": "f476661d48ae303daa64d636f9ebea395fa15d1d66880538a9ad102ffc0f0f73",
    "wide_maintenance/b2/wide_maintenance-seed5.pred.jsonl": "0d26d1124fd62aacb0aaff624e05e65acf975b61b7e6b6fde1c63d9f77f41727",
    "wide_maintenance/b3/wide_maintenance-seed5.pred.jsonl": "0d26d1124fd62aacb0aaff624e05e65acf975b61b7e6b6fde1c63d9f77f41727",
    "wide_maintenance/wide_maintenance-seed5.gt.jsonl": "9940f217e92d9550b08007071698bd9575df9b2000c37cad1c63d7e09221315f",
    "wide_maintenance/wide_maintenance-seed5.scenario.json": "645e4a10eef423d7eac5a7834f94500e84c07d0fba0e126bc0de30cfc69324ba",
    "wide_maintenance/wide_maintenance-seed5.stream.jsonl": "9f1abcfa913a901a41adceba1f9eefe717ceb6ed637104cd67642116fffbc855",
}


def test_pipeline_outputs_are_pinned(tmp_path):
    assert _pipeline_digests(tmp_path) == PINNED

"""Golden report digests: the sha256 of the text, JSON and CSV (with
orbit sizes) that ``cycloschur scan`` writes on a few pinned grids.

The digests were recorded from a tree whose reports were checked
against the member-by-member reference, so any change that alters a
byte of a report, on any of these grids or job counts, fails here.
"""

import contextlib
import hashlib
import io
from itertools import combinations_with_replacement

import pytest

from cycloschur import scanning
from cycloschur.cli import main

# (l, n, e, charge, jobs, p)
GRIDS = [
    *((3, 8, 3, ",".join(map(str, s)), 1, 3) for s in combinations_with_replacement(range(3), 3)),
    (2, 12, 2, "0,1", 1, 2),
    (2, 12, 2, "0,1", 2, 2),
    (4, 5, 3, "0,0,1,2", 1, 2),
    (3, 6, 2, "-3,5,2", 1, 3),
    (1, 3, 2, "0", 8, 1),
]

# text, JSON, CSV
GOLDEN = {
    (3, 8, 3, "0,0,0", 1, 3): (
        "35b02fe1e68e527ac63384666df7c404bc636a4c52a530c61d703e156ed8977c",
        "ea2ddb1f635a9b0accd4a5a5ae296805d1c72d6036006e8e1db65f64a2ea3976",
        "88f592af8cd629b9365d3e5e243293e5cb296c8f69406bcb60f7a9a55c515741",
    ),
    (3, 8, 3, "0,0,1", 1, 3): (
        "2a38bc2f39625186dd25dd09ac0d45e95a22da02946a10a7463af2b88a50508b",
        "ccd340d481280362b0f4170274ea19302d0ab8fb746254b692a351664aafe10a",
        "3e200eb7e57aa616d67eb911e47d38071d05f373c2bcc10ba15f25fdeff84bed",
    ),
    (3, 8, 3, "0,0,2", 1, 3): (
        "93af93b7dfda47ce94c9205e12f0b73dc02f657bbb547ab5d105dbc0351a97df",
        "c5326e540fcf98761b0997189a81a85b15a18c405487fe74792462e14210cb56",
        "67282ceb728dd7ed04822284c86c7111ecca0ea3d61d2218698a39b16b44384f",
    ),
    (3, 8, 3, "0,1,1", 1, 3): (
        "7ef2eed55c1fef6c310ca7912b79eefb9ec51610de0aa728ec96457951148d8e",
        "2b5c0c76c94bc33f200d45ccd224d7a82129ca77303e98a6296daf99e5a6b066",
        "76fc308126596145d8b71ee55b06d40bc9a56d98bb9a42438dd9e40b0aaf8de2",
    ),
    (3, 8, 3, "0,1,2", 1, 3): (
        "3cebef953936e1499ebc4e989a628dee295bdf263bdda41356dac80607e6f0c0",
        "cdc74384cd1b592d2247eafd30fa82f35d9d08e7102046edc7c13f1a84f1d434",
        "5ff4204504e4e2ee86a4629a4723f9db2082c13b807678d5fc7c0ceebc571083",
    ),
    (3, 8, 3, "0,2,2", 1, 3): (
        "9e5f18eaeb070b0ca77624b68dee6fb2c6bb9a1b01255b190529a2bda0096849",
        "51ca7d24b10755c89d9940308f7d2a989ddf5e62359b01f1e7b27ff9acc8f707",
        "2d568dbfbec3f1466a6ba0209e7cc19f0927f964bc376ffffb957758de18d633",
    ),
    (3, 8, 3, "1,1,1", 1, 3): (
        "3a25fb1b094687f159d0b63887c45b9b32e8fec290587d4b2dc4cc3e4f80129b",
        "bec77149e446bf78545ec9ea4e21021ac7935b60ea46a76df263b03730693cd9",
        "798840e439f41c5feaa5cfc61b4f9b451a7469f053affe4ef335468adcf7b3af",
    ),
    (3, 8, 3, "1,1,2", 1, 3): (
        "efb2180bb6c15f56f81b1984d5643e30d67c5cef69a7e27537e15c7679365f4d",
        "499f05324e781c00ef139a11473f1cefa001e01da6f23204b0094500c5f26bbd",
        "2f92369361ea06bf8a7f4901176cf940a52e8032030d2d9651acc1842cf10ae9",
    ),
    (3, 8, 3, "1,2,2", 1, 3): (
        "7b939d22bd934c2c6a1dee34c7b0cffd5253efbd53c1ac6216b3e37edad2fd43",
        "8d58e9b83bf49559994f979632462e16fa64a0360a6b94540f086fa8915c4ccc",
        "131b600fbccde0b30955dec24b97afe926c0f0c0827126d1079893585c7ecd0c",
    ),
    (3, 8, 3, "2,2,2", 1, 3): (
        "28e0062b0f60ea916d1c5e750bc626c24065edd3e7922250e1317d4367a3f7a1",
        "14ec96c8aaed7b75b7078a10f5e7d63299999b8946c3a5fc9060776705f2509a",
        "eee3ae149a5fdf1bb45a2f55b3b70ee6edc0513ff704ebbf2674a567452c3b13",
    ),
    (2, 12, 2, "0,1", 1, 2): (
        "3dc444d91b553f268ef8eae8a07475549f39c6bf45d5d9b608ed29cf2babaabe",
        "01015eb12efdc6fc036181d344010976bde76bdda4a803429b11d3d148f1ebef",
        "e883c7afe29421cd6a8488e502c29d0dc9d5aa65f02f3cb748122c537ee11582",
    ),
    (2, 12, 2, "0,1", 2, 2): (
        "3dc444d91b553f268ef8eae8a07475549f39c6bf45d5d9b608ed29cf2babaabe",
        "01015eb12efdc6fc036181d344010976bde76bdda4a803429b11d3d148f1ebef",
        "e883c7afe29421cd6a8488e502c29d0dc9d5aa65f02f3cb748122c537ee11582",
    ),
    (4, 5, 3, "0,0,1,2", 1, 2): (
        "a2f34544df38825441be9f6b08d2336607c2459ee3672b372213d85af3aedfe3",
        "dd7a8f6b751e066267e5cb78f962eb1e204c81a1eb472d1fbcf575dd84067d32",
        "09e0f521bb431ed5d79225b04801b908f63d73d47cc0b66914705614ebe4fc34",
    ),
    (3, 6, 2, "-3,5,2", 1, 3): (
        "96e11706eaee096bd6a156d2f53ada0d9659f10a983c745f6dc5ed3b43b04320",
        "8aca0797dd21c8cb86dd4890287ab9aa608cc2863e163d2645e84de4c633e708",
        "e653f8c468c67f3c9d9a120eb841825ffbb1067dac54a43ce322a66bbcb6f262",
    ),
    (1, 3, 2, "0", 8, 1): (
        "e703f9defd260ae340fa71789b395aefe0fcf1d2e3bbcf5ec3f51ff72b897879",
        "a43f069cfcae439b82e1dc2e4fec936a7a1bdbb44591ea43196f7c329fe0fe1e",
        "2ccce6cda2006653279c231b2b3827a9cca86537b6d8084462794cf931ffd588",
    ),
}


def scan_digests(tmp_path, l, n, e, charge, jobs, p):
    json_path, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
    out = io.StringIO()
    argv = [
        "scan", "--l", str(l), "--n", str(n), "--e", str(e), f"--charge={charge}",
        "--jobs", str(jobs), "--json", str(json_path), "--csv", str(csv_path), "--p", str(p),
    ]
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, (argv, code)
    blobs = (out.getvalue().encode(), json_path.read_bytes(), csv_path.read_bytes())
    return tuple(hashlib.sha256(b).hexdigest() for b in blobs)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: "-".join(map(str, g)))
def test_scan_reports_match_golden_digests(monkeypatch, tmp_path, grid):
    # cut as if one member repaid a worker process, so that the jobs=2 grid
    # runs in the real pool
    monkeypatch.setattr(scanning, "_WORKER_MEMBERS", 1)
    assert scan_digests(tmp_path, *grid) == GOLDEN[grid]

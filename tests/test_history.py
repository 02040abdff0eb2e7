"""Geo matching, archive/remote history retrieval, fixture server, cache."""

import contextlib
import http.client
import itertools
import json
import os
import shutil
import ssl
import struct
import threading
import tracemalloc
import zlib
from datetime import date
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlparse

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from chrono_shield import history
from chrono_shield.codecs import PNG_SIGNATURE, _png_chunk, decode_image, load_image, save_image, sniff_format
from chrono_shield.fixture_server import HistoryFixtureServer, _Handler
from chrono_shield.history import (
    HistoricalRecord,
    HistoryQuery,
    LocalArchive,
    ManifestEntry,
    ManifestMalformed,
    ManifestMissing,
    MatchPolicy,
    NetworkUnreachable,
    ProtocolError,
    RemoteHistoryClient,
    dump_manifest,
    filter_entries,
    haversine_m,
    heading_delta_deg,
    load_manifest,
    parse_manifest,
    query_archive,
)
from chrono_shield.raster import RasterImage
from chrono_shield.synth import make_history_archive

from _oracles import haversine_filter, haversine_law_of_cosines
from conftest import flat_image, random_image


def answer(records):
    """What a history query returns, images compared by their bytes."""
    return [(r.capture_date, r.location, r.heading, r.image.pixels.tobytes()) for r in records]


def query_once(url, query, **kwargs):
    """(records, client) of one query on a fresh client, closed after it."""
    with contextlib.closing(RemoteHistoryClient(url, **kwargs)) as client:
        return client.query(query), client


@contextlib.contextmanager
def raw_server(routes, redirects=None):
    """A bare HTTP/1.0 server answering GET path -> routes[path](base_url)
    with a 200 and the chunks that call yields, streamed with no
    Content-Length; a client that hangs up mid-body ends the reply. A path
    in redirects gets a 302 to redirects[path](base_url) instead."""

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *a):
            pass

        def do_GET(self):
            path = urlparse(self.path).path
            if redirects and path in redirects:
                self.send_response(302)
                self.send_header("Location", redirects[path](base))
                self.end_headers()
                return
            self.send_response(200)
            self.end_headers()
            try:
                for chunk in routes[path](base):
                    self.wfile.write(chunk)
            except ConnectionError:
                pass

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    thread = threading.Thread(target=httpd.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield base
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


def bad_manifest(root, kind: str) -> None:
    """Make root's manifest.json bytes that are not UTF-8 ("not-utf8") or a
    directory ("is-dir")."""
    path = Path(root) / "manifest.json"
    if kind == "is-dir":
        path.mkdir()
    else:
        path.write_bytes(b'[{"path": "\xff.png"}]')


BAD_MANIFESTS = [("not-utf8", ManifestMalformed), ("is-dir", ManifestMissing)]


def count_connects(client):
    """A list that gains an item each time the client's connection opens."""
    connects, connect = [], client.session.connect

    def counted():
        connects.append(1)
        connect()

    client.session.connect = counted
    return connects


# ---------------------------------------------------------------------------
# Geometry


class TestGeometry:
    def test_haversine_against_law_of_cosines(self, rng):
        # Independent spherical-law-of-cosines route must agree closely
        # for well-separated nearby points.
        for _ in range(200):
            lat = float(rng.uniform(-60, 60))
            lon = float(rng.uniform(-179, 179))
            dlat = float(rng.uniform(1e-4, 1e-2)) * (1 if rng.random() < 0.5 else -1)
            dlon = float(rng.uniform(1e-4, 1e-2)) * (1 if rng.random() < 0.5 else -1)
            a, b = (lat, lon), (lat + dlat, lon + dlon)
            got = haversine_m(a, b)
            want = haversine_law_of_cosines(a, b)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-3)

    def test_known_latitude_spacings(self):
        # R = 6371 km: 0.001 deg of latitude is ~111.19 m.
        assert haversine_m((40.0, -74.0), (40.001, -74.0)) == pytest.approx(111.19, rel=1e-3)
        assert haversine_m((0.0, 0.0), (1.0, 0.0)) == pytest.approx(111194.9, rel=1e-4)
        assert haversine_m((40.0, -74.0), (40.0, -74.0)) == 0.0

    def test_heading_delta_wraps(self):
        assert heading_delta_deg(350.0, 10.0) == pytest.approx(20.0)
        assert heading_delta_deg(10.0, 350.0) == pytest.approx(20.0)
        assert heading_delta_deg(0.0, 180.0) == pytest.approx(180.0)
        assert heading_delta_deg(90.0, 90.0) == 0.0


# ---------------------------------------------------------------------------
# Record / query validation


class TestValidation:
    def test_record_rejects_bad_coordinates(self):
        img = flat_image(100, 8, 8)
        with pytest.raises(ValueError):
            HistoricalRecord(img, date(2020, 1, 1), (91.0, 0.0), 90.0, "archive")
        with pytest.raises(ValueError):
            HistoricalRecord(img, date(2020, 1, 1), (0.0, 181.0), 90.0, "archive")
        with pytest.raises(ValueError):
            HistoricalRecord(img, date(2020, 1, 1), (0.0, 0.0), 90.0, "wormhole")

    def test_query_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            HistoryQuery(location=(-91.0, 0.0), heading=0.0)
        with pytest.raises(ValueError):
            HistoryQuery(location=(0.0, 0.0), heading=0.0, max_records=0)

    @pytest.mark.parametrize("heading", [float("nan"), float("inf"), float("-inf")])
    def test_query_rejects_non_finite_heading(self, heading):
        # A NaN heading would match every row: NaN > tolerance is false.
        with pytest.raises(ValueError, match="not finite"):
            HistoryQuery(location=(40.0, -74.0), heading=heading)


# ---------------------------------------------------------------------------
# Manifest parsing


GOOD_ROW = {"path": "a.png", "date": "2019-07-03", "lat": 40.0, "lon": -74.0, "heading": 90.0}


class TestManifest:
    def test_bare_array_form(self):
        m = parse_manifest(json.dumps([GOOD_ROW]))
        assert m == [ManifestEntry("a.png", date(2019, 7, 3), 40.0, -74.0, 90.0)]

    def test_versioned_dict_form(self):
        m = parse_manifest(json.dumps({"version": 2, "entries": [GOOD_ROW]}))
        assert m == parse_manifest(json.dumps([GOOD_ROW]))

    def test_dump_is_parsed_back_exactly(self):
        entries = [
            ManifestEntry("a.png", date(2019, 7, 3), 40.1 + 0.2, -74.0 / 3, 359.99999999999994),
            ManifestEntry("image/b c.png", date(2016, 10, 12), -90.0, 180.0, 0.0),
        ]
        for key in ("path", "image_url"):
            assert parse_manifest(dump_manifest(entries, path_key=key).decode(), path_key=key) == entries

    def test_alternate_path_key(self):
        row = dict(GOOD_ROW)
        row["image_url"] = row.pop("path")
        m = parse_manifest(json.dumps([row]), path_key="image_url")
        assert m[0].path == "a.png"

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "42",
            json.dumps({"version": 1}),  # dict without entries
            json.dumps([{"path": "a.png"}]),  # row missing fields
            json.dumps([{**GOOD_ROW, "date": "not-a-date"}]),
            pytest.param("[" * 100000 + "]" * 100000, id="nested-100000"),  # deeper than json can recurse
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(ManifestMalformed):
            parse_manifest(text)

    def test_load_manifest_missing(self, tmp_path):
        with pytest.raises(ManifestMissing):
            load_manifest(tmp_path)

    @pytest.mark.parametrize("kind, error", BAD_MANIFESTS)
    def test_load_manifest_not_utf8_or_not_a_file(self, tmp_path, kind, error):
        bad_manifest(tmp_path, kind)
        with pytest.raises(error):
            load_manifest(tmp_path)

    BAD_NUMBERS = [
        ("lat", "inf"), ("lat", "-inf"), ("lat", "nan"), ("lat", 90.5),
        ("lon", "inf"), ("lon", "nan"), ("lon", -180.5),
        ("heading", "inf"), ("heading", "nan"),
    ]

    @pytest.mark.parametrize("field, value", BAD_NUMBERS)
    def test_non_finite_or_out_of_range_number_is_malformed(self, field, value):
        with pytest.raises(ManifestMalformed):
            parse_manifest(json.dumps([{**GOOD_ROW, field: value}]))

    @pytest.mark.parametrize("field, value", BAD_NUMBERS)
    def test_remote_non_finite_number_is_protocol_error(self, field, value):
        row = {**GOOD_ROW, field: value}
        row["image_url"] = row.pop("path")
        with raw_server({"/history": lambda base: [json.dumps([row]).encode()]}) as url:
            with pytest.raises(ProtocolError):
                query_once(url, HistoryQuery(location=(40.0, -74.0), heading=90.0))

    def test_edited_manifest_is_read_again(self, tmp_path):
        # Only the parse of the text last read is kept: rewriting the file
        # between two loads changes the second answer.
        rows = [GOOD_ROW, {**GOOD_ROW, "path": "b.png", "date": "2020-11-21"}]
        (tmp_path / "manifest.json").write_text(json.dumps(rows))
        first = load_manifest(tmp_path)
        first.clear()  # a caller's list is its own
        assert [e.path for e in load_manifest(tmp_path)] == ["a.png", "b.png"]
        (tmp_path / "manifest.json").write_text(json.dumps(rows[:1]))
        assert [e.path for e in load_manifest(tmp_path)] == ["a.png"]


# ---------------------------------------------------------------------------
# Filtering


def entry(path="x.png", when=date(2019, 1, 1), lat=40.0, lon=-74.0, heading=90.0):
    return ManifestEntry(path=path, capture_date=when, lat=lat, lon=lon, heading=heading)


class TestFilterEntries:
    QUERY = HistoryQuery(location=(40.0, -74.0), heading=90.0, max_records=10)

    def test_radius_cutoff(self):
        near = entry(lat=40.0001)  # ~11 m
        far = entry(lat=40.001)  # ~111 m
        kept = filter_entries([near, far], self.QUERY)
        assert kept == [near]
        wide = filter_entries([near, far], self.QUERY, MatchPolicy(radius_m=200.0))
        assert set(wide) == {near, far}

    def test_heading_tolerance(self):
        ok = entry(heading=130.0)  # delta 40
        off = entry(heading=140.0)  # delta 50
        wrapped = entry(heading=50.0)  # delta 40 the other way
        assert filter_entries([ok, off, wrapped], self.QUERY) == [ok, wrapped] or set(
            filter_entries([ok, off, wrapped], self.QUERY)
        ) == {ok, wrapped}

    def test_before_excludes_same_day(self):
        old = entry(path="old.png", when=date(2016, 10, 12))
        cut = entry(path="cut.png", when=date(2019, 7, 3))
        q = HistoryQuery(location=(40.0, -74.0), heading=90.0, before=date(2019, 7, 3))
        assert filter_entries([old, cut], q) == [old]

    def test_newest_first_then_path(self):
        a = entry(path="a.png", when=date(2016, 1, 1))
        b = entry(path="b.png", when=date(2020, 1, 1))
        c = entry(path="c.png", when=date(2020, 1, 1))
        kept = filter_entries([a, b, c], self.QUERY)
        assert kept == [c, b, a]

    def test_max_records_cap(self):
        rows = [entry(path=f"{i}.png", when=date(2000 + i, 1, 1)) for i in range(6)]
        q = HistoryQuery(location=(40.0, -74.0), heading=90.0, max_records=2)
        kept = filter_entries(rows, q)
        assert [e.path for e in kept] == ["5.png", "4.png"]

    @settings(max_examples=300)
    @given(
        qlat=st.one_of(st.floats(-90.0, 90.0), st.sampled_from([90.0, -90.0, 89.9999, -89.9999, 0.0])),
        qlon=st.one_of(st.floats(-180.0, 180.0), st.sampled_from([180.0, -180.0, 179.9999, -179.9999])),
        rows=st.lists(
            st.tuples(
                st.floats(-5e-4, 5e-4),  # latitude offset, degrees (~55 m)
                st.floats(-5e-4, 5e-4),  # longitude offset
                st.floats(0.0, 360.0),
                st.integers(2015, 2024),
            ),
            min_size=1,
            max_size=12,
        ),
        at_radius=st.integers(0, 11),
        max_records=st.integers(1, 12),
    )
    def test_matches_haversine_oracle(self, qlat, qlon, rows, at_radius, max_records):
        # Rows scatter around the query, clamped at the poles and wrapped
        # across the antimeridian; the radius is either the default or
        # exactly one row's distance, so that row sits on the boundary.
        entries = [
            entry(
                path=f"{i}.png",
                when=date(year, 1, 1),
                lat=min(max(qlat + dlat, -90.0), 90.0),
                lon=(qlon + dlon + 180.0) % 360.0 - 180.0,
                heading=heading,
            )
            for i, (dlat, dlon, heading, year) in enumerate(rows)
        ]
        edge = entries[at_radius % len(entries)]
        q = HistoryQuery(location=(qlat, qlon), heading=90.0, max_records=max_records)
        for radius in (25.0, haversine_m((qlat, qlon), (edge.lat, edge.lon))):
            policy = MatchPolicy(radius_m=radius)
            want = haversine_filter(entries, q.location, q.heading, max_records, None, radius, policy.heading_tol_deg)
            assert filter_entries(entries, q, policy) == want


# ---------------------------------------------------------------------------
# Archive + fixture server


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("archive")
    coords = make_history_archive([0, 1, 2], root, side=48, renders_per_sign=3, seed=0)
    return str(root), coords


def fresh_query(coords, i=0, before=date(2025, 1, 1), max_records=3):
    lat, lon, heading = coords[i]
    return HistoryQuery(location=(lat, lon), heading=heading, max_records=max_records, before=before)


class TestQueryArchive:
    def test_round_trip_newest_first(self, archive):
        root, coords = archive
        records = query_archive(root, fresh_query(coords))
        assert len(records) == 3
        assert [r.capture_date for r in records] == [
            date(2020, 11, 21), date(2019, 7, 3), date(2016, 10, 12)
        ]
        assert all(r.source == "archive" for r in records)
        assert all(r.heading == 90.0 for r in records)

    def test_signs_are_isolated_by_radius(self, archive):
        root, coords = archive
        # Each sign's records come from its own location (111 m spacing).
        for i in range(3):
            records = query_archive(root, fresh_query(coords, i))
            lat = coords[i][0]
            assert all(r.location[0] == pytest.approx(lat) for r in records)

    def test_before_bound(self, archive):
        root, coords = archive
        records = query_archive(root, fresh_query(coords, before=date(2019, 7, 3)))
        assert [r.capture_date for r in records] == [date(2016, 10, 12)]

    def test_unreadable_image_skipped(self, archive, tmp_path):
        root, coords = archive
        # Clone the manifest into a directory with one image missing.
        clone = tmp_path / "clone"
        clone.mkdir()
        with open(os.path.join(root, "manifest.json"), "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        for row in manifest:
            if row["path"].startswith("sign0000_2019"):
                continue  # leave this image missing on disk
            with open(os.path.join(root, row["path"]), "rb") as fh:
                (clone / row["path"]).write_bytes(fh.read())
        (clone / "manifest.json").write_text(json.dumps(manifest))
        records = query_archive(str(clone), fresh_query(coords))
        assert len(records) == 2
        assert date(2019, 7, 3) not in {r.capture_date for r in records}

    def test_paths_outside_the_archive_are_never_read(self, archive, tmp_path):
        # One row inside the archive; the others name a valid image outside
        # it by '..', by an absolute path and through a symlink. The fixture
        # server refuses the escaping paths, and the local reader agrees.
        _, coords = archive
        lat, lon, heading = coords[0]
        root = tmp_path / "arch"
        root.mkdir()
        outside = tmp_path / "outside.png"
        save_image(flat_image(7, 8, 8), str(outside))
        save_image(flat_image(200, 8, 8), str(root / "inside.png"))
        (root / "link.png").symlink_to(outside)
        paths = ["inside.png", "../outside.png", str(outside), "link.png"]
        rows = [
            {"path": p, "date": f"201{i}-01-01", "lat": lat, "lon": lon, "heading": heading}
            for i, p in enumerate(paths)
        ]
        (root / "manifest.json").write_text(json.dumps(rows))
        query = fresh_query(coords, max_records=len(paths))
        local = query_archive(str(root), query)
        with HistoryFixtureServer(root) as server:
            remote, _ = query_once(server.url, query)
        assert answer(local) == answer(remote)
        assert [r.image.pixels[0, 0, 0] for r in local] == [200]


class TestLocalArchive:
    def test_keeps_root_real_root_entries_and_policy(self, archive, tmp_path):
        root, _ = archive
        link = tmp_path / "link"
        link.symlink_to(root)
        local = LocalArchive(link)
        assert (local.root, local.real_root, local.policy) == (str(link), os.path.realpath(root), MatchPolicy())
        assert local.entries == load_manifest(root)

    def test_manifest_is_read_once_when_built(self, archive, tmp_path, monkeypatch):
        root, coords = archive
        clone = tmp_path / "clone"
        shutil.copytree(root, clone)
        loads, real_load = [], history.load_manifest
        monkeypatch.setattr(history, "load_manifest", lambda r: loads.append(r) or real_load(r))
        local = LocalArchive(clone)
        want = [answer(local.query(fresh_query(coords, i))) for i in range(len(coords))]
        assert len(loads) == 1 and all(len(w) == 3 for w in want)
        # A later edit is not seen: the entries were parsed at build time.
        (clone / "manifest.json").write_text("[]")
        assert [answer(local.query(fresh_query(coords, i))) for i in range(len(coords))] == want
        assert len(loads) == 1

    def test_policy_is_applied(self, archive):
        root, coords = archive
        lat, lon, heading = coords[0]
        q = HistoryQuery(location=(lat, lon), heading=heading + 90.0, before=date(2025, 1, 1))
        assert LocalArchive(root).query(q) == []
        wide = MatchPolicy(heading_tol_deg=90.0)
        got = LocalArchive(root, wide).query(q)
        assert len(got) == 3 and answer(got) == answer(query_archive(root, q, wide))

    @pytest.mark.parametrize("kind, error", BAD_MANIFESTS)
    def test_bad_manifest_fails_when_built(self, tmp_path, kind, error):
        bad_manifest(tmp_path, kind)
        with pytest.raises(error):
            LocalArchive(tmp_path)

    def test_missing_unreadable_and_outside_images_are_skipped_and_logged(self, tmp_path, caplog):
        root = tmp_path / "arch"
        root.mkdir()
        save_image(flat_image(200, 8, 8), str(root / "inside.png"))
        save_image(flat_image(7, 8, 8), str(tmp_path / "outside.png"))
        (root / "bad.png").write_bytes(b"not an image")
        paths = ["inside.png", "missing.png", "bad.png", "../outside.png"]
        rows = [
            {"path": p, "date": f"201{i}-01-01", "lat": 40.0, "lon": -74.0, "heading": 90.0}
            for i, p in enumerate(paths)
        ]
        (root / "manifest.json").write_text(json.dumps(rows))
        local = LocalArchive(root)
        with caplog.at_level("WARNING", logger="chrono_shield.history"):
            records = local.query(HistoryQuery(location=(40.0, -74.0), heading=90.0, max_records=4))
        assert [r.image.pixels[0, 0, 0] for r in records] == [200]
        real = os.path.realpath(root)
        assert [m.split(":")[0] for m in caplog.messages] == [
            "skipping archive path '../outside.png'",
            f"skipping unreadable archive image {real}/bad.png",
            f"skipping unreadable archive image {real}/missing.png",
        ]


TLS_CERT = Path(__file__).parent / "data" / "tls_cert.pem"
TLS_KEY = Path(__file__).parent / "data" / "tls_key.pem"


class TestFixtureServer:
    def test_remote_matches_archive(self, archive, tmp_path):
        root, coords = archive
        with HistoryFixtureServer(root) as server:
            got, _ = query_once(server.url, fresh_query(coords), cache_dir=tmp_path / "cache")
            want = query_archive(root, fresh_query(coords))
            assert len(got) == len(want) == 3
            for g, w in zip(got, want):
                assert g.capture_date == w.capture_date
                assert g.location == w.location
                assert g.heading == w.heading
                assert g.source == "remote"
                assert np.array_equal(g.image.pixels, w.image.pixels)

    def test_warm_cache_hits_no_network(self, archive, tmp_path):
        root, coords = archive
        cache = tmp_path / "cache"
        with HistoryFixtureServer(root) as server:
            first, _ = query_once(server.url, fresh_query(coords), cache_dir=cache)
            stats_after_first = requests.get(server.url + "/stats", timeout=5).json()
            assert stats_after_first["history"] >= 1
            assert stats_after_first["image"] >= 3

            second, second_client = query_once(server.url, fresh_query(coords), cache_dir=cache)
            assert second_client.last_network_requests == 0
            stats_after_second = requests.get(server.url + "/stats", timeout=5).json()
            # /stats requests are not counted; the warm query added nothing.
            assert stats_after_second == stats_after_first
        assert [r.capture_date for r in second] == [r.capture_date for r in first]
        for a, b in zip(first, second):
            assert np.array_equal(a.image.pixels, b.image.pixels)

    @pytest.mark.parametrize(
        "kind, garble",
        [
            ("images", lambda data: data[: len(data) // 2]),
            ("queries", lambda data: data[: len(data) // 2]),
            ("queries", lambda data: b"\xff\xfe" + data),
        ],
        ids=["truncated_png", "truncated_json", "not_utf8"],
    )
    def test_corrupt_cache_entry_is_a_miss(self, archive, tmp_path, kind, garble):
        root, coords = archive
        cache = tmp_path / "cache"
        with HistoryFixtureServer(root) as server:
            query_once(server.url, fresh_query(coords), cache_dir=cache)
            entry = sorted((cache / kind).iterdir())[0]
            good = entry.read_bytes()
            entry.write_bytes(garble(good))
            got, client = query_once(server.url, fresh_query(coords), cache_dir=cache)
        assert client.last_network_requests == 1  # only the corrupt entry is fetched again
        assert entry.read_bytes() == good
        want = query_archive(root, fresh_query(coords))
        assert [(r.capture_date, r.location, r.heading) for r in got] == [
            (r.capture_date, r.location, r.heading) for r in want
        ]
        for g, w in zip(got, want):
            assert np.array_equal(g.image.pixels, w.image.pixels)

    def test_forced_500_is_network_unreachable_and_uncached(self, archive, tmp_path):
        root, coords = archive
        cache = tmp_path / "cache500"
        with HistoryFixtureServer(root) as server:
            server.force_history_status = 500
            with pytest.raises(NetworkUnreachable):
                query_once(server.url, fresh_query(coords), cache_dir=cache)
        qdir = cache / "queries"
        assert not qdir.exists() or list(qdir.iterdir()) == []

    def test_forced_404_is_protocol_error(self, archive, tmp_path):
        root, coords = archive
        with HistoryFixtureServer(root) as server:
            server.force_history_status = 404
            with pytest.raises(ProtocolError):
                query_once(server.url, fresh_query(coords), cache_dir=tmp_path / "c404")

    def test_missing_image_skipped_and_counted(self, archive, tmp_path):
        root, coords = archive
        clone = tmp_path / "clone"
        shutil.copytree(root, clone)
        victim = [n for n in os.listdir(str(clone)) if n.startswith("sign0000_2019")][0]
        os.remove(clone / victim)
        with HistoryFixtureServer(str(clone)) as server:
            records, client = query_once(server.url, fresh_query(coords))  # no cache
        assert len(records) == 2
        assert client.last_failures == 1

    def test_image_route_serves_stored_png_bytes(self, archive, tmp_path, rng):
        # The archive's own PNGs, and one the encoder would not write
        # (stored deflate blocks, one sub-filtered row), go out unchanged.
        root, _ = archive
        stored = {p.name: p.read_bytes() for p in Path(root).glob("*.png")}
        px = rng.integers(0, 256, size=(2, 3, 3), dtype=np.uint8)
        lines = bytes([1, *px[0, 0], *(px[0, 1:] - px[0, :-1]).reshape(-1)]) + bytes([0]) + px[1].tobytes()
        ihdr = struct.pack(">IIBBBBB", 3, 2, 8, 2, 0, 0, 0)
        stored["odd.png"] = (
            PNG_SIGNATURE + _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IDAT", zlib.compress(lines, 0)) + _png_chunk(b"IEND", b"")
        )
        assert decode_image(stored["odd.png"], "png") == RasterImage(px)
        for name, data in stored.items():
            (tmp_path / name).write_bytes(data)
        (tmp_path / "manifest.json").write_text(json.dumps([{**GOOD_ROW, "path": n} for n in stored]))
        with HistoryFixtureServer(tmp_path) as server, requests.Session() as session:
            for name, data in stored.items():
                resp = session.get(f"{server.url}/image/{name}", timeout=5)
                assert resp.status_code == 200 and resp.headers["Content-Type"] == "image/png"
                assert resp.content == data

    @pytest.mark.parametrize("channels", [1, 3])
    def test_pnm_archive_image_is_served_as_png(self, tmp_path, rng, channels):
        img = random_image(rng, 9, 5, channels)
        ext = ".pgm" if channels == 1 else ".ppm"
        save_image(img, str(tmp_path / f"frame{ext}"))
        (tmp_path / "manifest.json").write_text(json.dumps([{**GOOD_ROW, "path": f"frame{ext}"}]))
        query = HistoryQuery(location=(40.0, -74.0), heading=90.0)
        with HistoryFixtureServer(tmp_path) as server:
            body = requests.get(f"{server.url}/image/frame{ext}", timeout=5).content
            records, _ = query_once(server.url, query)
        assert sniff_format(body) == "png" and decode_image(body, "png") == img
        assert answer(records) == answer(query_archive(str(tmp_path), query))

    def test_corrupt_stored_png_is_skipped_and_counted(self, archive, tmp_path):
        # The server sends the stored bytes as they are; the client finds
        # them undecodable, as query_archive does, and counts one failure.
        root, coords = archive
        clone = tmp_path / "clone"
        shutil.copytree(root, clone)
        (victim,) = clone.glob("sign0000_2019*")
        data = bytearray(victim.read_bytes())
        data[40] ^= 0xFF  # inside IDAT: the chunk fails its CRC
        victim.write_bytes(bytes(data))
        with HistoryFixtureServer(str(clone)) as server:
            assert requests.get(f"{server.url}/image/{victim.name}", timeout=5).content == bytes(data)
            records, client = query_once(server.url, fresh_query(coords), cache_dir=tmp_path / "cache")
        assert answer(records) == answer(query_archive(str(clone), fresh_query(coords)))
        assert len(records) == 2 and client.last_failures == 1
        assert len(list((tmp_path / "cache" / "images").iterdir())) == 2  # the bad body is not cached

    def test_kept_alive_connection_carries_a_body_larger_than_the_write_buffer(self, tmp_path, rng):
        save_image(random_image(rng, 256, 256), str(tmp_path / "big.png"))
        stored = (tmp_path / "big.png").read_bytes()
        assert len(stored) > _Handler.wbufsize
        (tmp_path / "manifest.json").write_text(json.dumps([{**GOOD_ROW, "path": "big.png"}]))
        with HistoryFixtureServer(tmp_path) as server:
            where = urlparse(server.url)
            conn = http.client.HTTPConnection(where.hostname, where.port, timeout=5)
            try:
                socks = []
                for path in ("/image/big.png", "/stats", "/image/big.png"):
                    conn.request("GET", path)
                    resp = conn.getresponse()
                    body = resp.read()
                    assert resp.status == 200 and not resp.will_close
                    socks.append(conn.sock)
                    if path == "/stats":
                        assert json.loads(body)["image"] == 1
                    else:
                        assert body == stored
                assert socks[0] is not None and socks[0] is socks[1] is socks[2]
            finally:
                conn.close()

    def test_connection_is_kept_alive(self, archive):
        root, _ = archive
        with HistoryFixtureServer(root) as server:
            where = urlparse(server.url)
            conn = http.client.HTTPConnection(where.hostname, where.port, timeout=5)
            try:
                socks = []
                for _ in range(2):
                    conn.request("GET", "/stats")
                    resp = conn.getresponse()
                    assert resp.status == 200 and json.loads(resp.read())["hits"] == 0
                    assert not resp.will_close
                    socks.append(conn.sock)
                assert socks[0] is not None and socks[1] is socks[0]
            finally:
                conn.close()

    def test_stop_closes_pooled_connections(self, archive):
        root, coords = archive
        server = HistoryFixtureServer(root).start()
        with contextlib.closing(RemoteHistoryClient(server.url, timeout=2)) as client:
            try:
                assert len(client.query(fresh_query(coords))) == 3  # leaves a pooled connection
            finally:
                server.stop()
            with pytest.raises(NetworkUnreachable):
                client.query(fresh_query(coords))

    def test_history_without_heading_or_max_is_the_whole_neighbourhood(self, archive):
        root, coords = archive
        lat, lon, _ = coords[0]
        with HistoryFixtureServer(root) as server:
            params = {"lat": lat, "lon": lon}
            rows = requests.get(server.url + "/history", params=params, timeout=5).json()
            capped = requests.get(server.url + "/history", params={**params, "heading": 270, "max": 2}, timeout=5).json()
        assert len(rows) == 3 and capped == []

    @pytest.mark.parametrize("heading", ["nan", "inf", "-inf"])
    def test_history_with_non_finite_heading_is_400(self, archive, heading):
        root, coords = archive
        lat, lon, _ = coords[0]
        with HistoryFixtureServer(root) as server:
            resp = requests.get(server.url + "/history", params={"lat": lat, "lon": lon, "heading": heading}, timeout=5)
        assert resp.status_code == 400 and "not finite" in resp.json()["error"]

    @pytest.mark.parametrize("route", ["history", "image"])
    def test_oversized_body_is_refused_in_bounded_memory(self, monkeypatch, tmp_path, route):
        cap = 1 << 20
        monkeypatch.setattr(history, "MAX_BODY_BYTES", cap)
        chunk = bytes(1 << 16)

        def oversized(base):
            return [chunk] * (16 * cap // len(chunk))

        def one_row(base):
            return [json.dumps([{**GOOD_ROW, "image_url": base + "/image/a.png"}]).encode()]

        routes = {"/history": oversized} if route == "history" else {"/history": one_row, "/image/a.png": oversized}
        cache = tmp_path / "cache"
        with raw_server(routes) as url, contextlib.closing(RemoteHistoryClient(url, cache_dir=cache)) as client:
            tracemalloc.start()
            try:
                with pytest.raises(ProtocolError):
                    client.query(HistoryQuery(location=(40.0, -74.0), heading=90.0))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 4 * cap
        kind = "queries" if route == "history" else "images"
        assert not (cache / kind).exists() or list((cache / kind).iterdir()) == []

    def test_stats_route_shape(self, archive):
        root, _ = archive
        with HistoryFixtureServer(root) as server:
            doc = requests.get(server.url + "/stats", timeout=5).json()
            assert set(doc) == {"hits", "history", "image"}
            assert doc["hits"] == doc["history"] + doc["image"]

    def test_image_route_rejects_traversal(self, archive):
        root, _ = archive
        with HistoryFixtureServer(root) as server:
            resp = requests.get(server.url + "/image/../manifest.json", timeout=5)
            assert resp.status_code in (403, 404)

    def test_garbage_history_body_is_protocol_error(self):
        with raw_server({"/history": lambda base: [b"this is not json"]}) as url:
            q = HistoryQuery(location=(40.0, -74.0), heading=90.0)
            with pytest.raises(ProtocolError):
                query_once(url, q)

    def test_connection_refused_is_network_unreachable(self):
        q = HistoryQuery(location=(40.0, -74.0), heading=90.0)
        client = RemoteHistoryClient("http://127.0.0.1:1", timeout=0.5)
        connects = count_connects(client)
        with pytest.raises(NetworkUnreachable):
            client.query(q)
        # A fresh connection that fails is not tried again.
        assert len(connects) == 1 and client.last_network_requests == 1

    @pytest.mark.parametrize("endpoint", ["http://", "http://127.0.0.1:abc", "http://[::1", "ftp://127.0.0.1/history"])
    def test_malformed_endpoint_is_network_unreachable(self, endpoint):
        with pytest.raises(NetworkUnreachable, match="bad history endpoint"):
            RemoteHistoryClient(endpoint).query(HistoryQuery(location=(40.0, -74.0), heading=90.0))

    def test_stale_kept_alive_connection_is_retried_once(self, archive, tmp_path):
        # The server ends the idle kept-alive connection between two cold
        # queries; the second query's first GET finds it closed and goes
        # out again on a fresh connection, counted once.
        root, coords = archive
        with HistoryFixtureServer(root) as server, contextlib.closing(RemoteHistoryClient(server.url, cache_dir=tmp_path / "cache")) as client:
            connects = count_connects(client)
            assert len(client.query(fresh_query(coords, 0))) == 3
            assert client.session.sock is not None and len(connects) == 1
            server._httpd.close_connections(timeout=5)
            before = server.stats()["hits"]
            q = fresh_query(coords, 1)
            got = client.query(q)
            assert answer(got) == answer(query_archive(root, q)) and len(got) == 3
            assert client.last_network_requests == server.stats()["hits"] - before == 4
            assert len(connects) == 2

    def test_close_ends_the_connection_and_a_later_query_reopens_it(self, archive):
        root, coords = archive
        with HistoryFixtureServer(root) as server:
            client = RemoteHistoryClient(server.url)
            want = answer(client.query(fresh_query(coords)))
            client.close()
            assert client.session.sock is None
            assert answer(client.query(fresh_query(coords))) == want
            assert client.last_network_requests == 4
            client.close()

    def test_names_that_need_quoting_are_fetched(self, tmp_path):
        root = tmp_path / "archive"
        coords = make_history_archive([0], root, side=16, renders_per_sign=3, seed=0)
        rows = json.loads((root / "manifest.json").read_text())
        for row in rows:
            name = row["path"].replace("sign", "sign é ", 1)
            os.rename(root / row["path"], root / name)
            row["path"] = name
        (root / "manifest.json").write_text(json.dumps(rows))
        q = fresh_query(coords)
        with HistoryFixtureServer(root) as server:
            got, client = query_once(server.url, q, cache_dir=tmp_path / "cache")
        assert len(got) == 3 and client.last_failures == 0
        assert answer(got) == answer(query_archive(str(root), q))

    def test_close_delimited_response_leaves_the_connection_closed(self, tmp_path):
        png = tmp_path / "a.png"
        save_image(flat_image(9, 4, 4), str(png))
        rows = [json.dumps([{**GOOD_ROW, "image_url": "image/a.png"}]).encode()]
        with raw_server({"/history": lambda base: rows, "/image/a.png": lambda base: [png.read_bytes()]}) as url:
            client = RemoteHistoryClient(url)
            assert [r.image for r in client.query(HistoryQuery(location=(40.0, -74.0), heading=90.0))] == [load_image(png)]
        assert client.session.sock is None

    def test_image_redirect_is_not_followed(self, tmp_path):
        # A hostile server redirects the image to another host's; that
        # image must not become a voter.
        foreign_root = tmp_path / "foreign"
        foreign_root.mkdir()
        save_image(flat_image(9, 4, 4), str(foreign_root / "a.png"))
        (foreign_root / "manifest.json").write_text(json.dumps([GOOD_ROW]))
        rows = [json.dumps([{**GOOD_ROW, "image_url": "image/a.png"}]).encode()]
        with HistoryFixtureServer(foreign_root) as foreign:
            away = {"/image/a.png": lambda base: foreign.url + "/image/a.png"}
            with raw_server({"/history": lambda base: rows}, redirects=away) as url:
                records, client = query_once(url, HistoryQuery(location=(40.0, -74.0), heading=90.0), cache_dir=tmp_path / "cache")
            assert records == [] and client.last_failures == 1
            assert foreign.stats()["hits"] == 0
        assert not (tmp_path / "cache" / "images").exists()

    def test_history_redirect_is_protocol_error(self, archive, tmp_path):
        root, coords = archive
        with HistoryFixtureServer(root) as foreign:
            away = {"/history": lambda base: foreign.url + "/history"}
            with raw_server({}, redirects=away) as url:
                with pytest.raises(ProtocolError, match="302"):
                    query_once(url, fresh_query(coords), cache_dir=tmp_path / "cache")
            assert foreign.stats()["hits"] == 0
        assert not (tmp_path / "cache" / "queries").exists()

    def test_cache_warmed_on_one_address_serves_another(self, archive, tmp_path):
        root, coords = archive
        cache = tmp_path / "cache"
        with HistoryFixtureServer(root) as first:
            want = answer(query_once(first.url, fresh_query(coords), cache_dir=cache)[0])
            old_url = first.url
        with HistoryFixtureServer(root) as second:
            assert second.url != old_url
            got, warm = query_once(second.url, fresh_query(coords), cache_dir=cache)
            assert answer(got) == want
            assert warm.last_network_requests == 0 and second.stats()["hits"] == 0
        (entry,) = (cache / "queries").iterdir()
        assert all(row["image_url"].startswith("image/sign") for row in json.loads(entry.read_text()))

    @pytest.mark.parametrize(
        "image_url",
        [
            "http://127.0.0.1:1/api/image/a.png",  # another port
            "//127.0.0.1:1/api/image/a.png",  # another host, scheme-relative
            "/image/a.png",  # host-rooted: outside /api
            "image/../../a.png",  # climbs above /api
            "{base}/api/image/../../a.png",
            "{base}/apix/image/a.png",
            "file:///etc/hostname",
        ],
    )
    def test_image_url_outside_the_endpoint_is_protocol_error(self, tmp_path, image_url):
        # Refused before any image request: the routes have no image.
        def rows(base):
            return [json.dumps([{**GOOD_ROW, "image_url": image_url.format(base=base)}]).encode()]

        with raw_server({"/api/history": rows}) as url:
            client = RemoteHistoryClient(url + "/api", cache_dir=tmp_path / "cache")
            with contextlib.closing(client), pytest.raises(ProtocolError, match="does not resolve under"):
                client.query(HistoryQuery(location=(40.0, -74.0), heading=90.0))
        assert client.last_network_requests == 1
        assert not (tmp_path / "cache" / "queries").exists()

    @pytest.mark.parametrize("image_url", ["image/a.png", "./image/a.png", "image/x/../a.png", "{base}/api/image/a.png"])
    def test_image_url_under_the_endpoint_is_fetched_relative_to_it(self, tmp_path, image_url):
        png = tmp_path / "a.png"
        save_image(flat_image(9, 4, 4), str(png))

        def rows(base):
            return [json.dumps([{**GOOD_ROW, "image_url": image_url.format(base=base)}]).encode()]

        with raw_server({"/api/history": rows, "/api/image/a.png": lambda base: [png.read_bytes()]}) as url:
            records, _ = query_once(url + "/api", HistoryQuery(location=(40.0, -74.0), heading=90.0), cache_dir=tmp_path / "cache")
        assert [r.image for r in records] == [load_image(png)]
        (entry,) = (tmp_path / "cache" / "queries").iterdir()
        assert json.loads(entry.read_text())[0]["image_url"] == "image/a.png"

    def test_missing_archive_fails_at_start(self, tmp_path):
        with pytest.raises(ManifestMissing):
            HistoryFixtureServer(tmp_path)

    @pytest.mark.parametrize("kind, error", BAD_MANIFESTS)
    def test_bad_manifest_fails_at_start(self, tmp_path, kind, error):
        bad_manifest(tmp_path, kind)
        with pytest.raises(error):
            HistoryFixtureServer(tmp_path)

    def test_serves_its_local_archive_and_policy(self, archive, tmp_path):
        # The server's one archive is a LocalArchive with its policy: a wide
        # heading tolerance reaches the remote client's neighbourhood fetch.
        root, coords = archive
        lat, lon, heading = coords[0]
        q = HistoryQuery(location=(lat, lon), heading=heading + 90.0, before=date(2025, 1, 1))
        wide = MatchPolicy(heading_tol_deg=90.0)
        with HistoryFixtureServer(root, policy=wide) as server:
            assert isinstance(server.archive, LocalArchive) and server.archive.policy == wide
            assert not {"root", "real_root", "entries", "policy"} & set(vars(server))
            got, _ = query_once(server.url, q, policy=wide)
        assert len(got) == 3 and answer(got) == answer(LocalArchive(root, wide).query(q))

    def test_https_endpoint_is_verified(self, archive, monkeypatch):
        # The server's socket speaks TLS with a self-signed certificate for
        # 127.0.0.1, made by `openssl req -x509 -newkey rsa:2048 -nodes
        # -days 36500 -subj /CN=127.0.0.1 -addext subjectAltName=IP:127.0.0.1`.
        # The client trusts it only once SSL_CERT_FILE names it.
        root, coords = archive
        q = fresh_query(coords)
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(TLS_CERT, TLS_KEY)
        server = HistoryFixtureServer(root)
        server._httpd.socket = context.wrap_socket(server._httpd.socket, server_side=True)
        url = server.url.replace("http://", "https://")
        with server:
            monkeypatch.delenv("SSL_CERT_FILE", raising=False)
            with pytest.raises(NetworkUnreachable, match="certificate verify failed"):
                query_once(url, q)
            monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
            got, _ = query_once(url, q)
        assert len(got) == 3 and answer(got) == answer(query_archive(root, q))

    def test_cache_keys_on_the_heading_sent(self, tmp_path):
        # Sign 1 stands on sign 0's pole facing 150 degrees: a 100-degree
        # query sees only sign 0 (sign 1 is 50 degrees off), a 120-degree
        # query sees both. A warm cache must not answer the second query
        # with the records fetched for the first; the second still fetches
        # sign 1's images.
        root = tmp_path / "archive"
        coords = make_history_archive([0, 1], root, side=16, renders_per_sign=3, seed=0)
        lat, lon, _ = coords[0]
        rows = json.loads((root / "manifest.json").read_text())
        for row in rows:
            if row["path"].startswith("sign0001"):
                row.update(lat=lat, lon=lon, heading=150.0)
        (root / "manifest.json").write_text(json.dumps(rows))

        with HistoryFixtureServer(root) as server, contextlib.closing(RemoteHistoryClient(server.url, cache_dir=tmp_path / "cache")) as client:
            for heading in (100.0, 120.0):
                q = HistoryQuery(location=(lat, lon), heading=heading, before=date(2025, 1, 1))
                assert answer(client.query(q)) == answer(query_archive(str(root), q))
                assert client.last_network_requests > 0


    def test_warm_cache_answers_any_heading_without_requests(self, tmp_path):
        # Three signs share one pole at drawn headings. The cold pass asks
        # at each sign's own heading with no cap, which fetches every image;
        # after that a fresh client on the same cache answers any heading
        # and cap exactly as query_archive does, with no request at all.
        root = tmp_path / "archive"
        coords = make_history_archive([0, 1, 2], root, side=16, renders_per_sign=3, seed=0)
        lat, lon, _ = coords[0]
        rows = json.loads((root / "manifest.json").read_text())
        caches = itertools.count()
        headings = st.floats(0.0, 360.0, exclude_max=True)

        @settings(max_examples=25)
        @given(poles=st.lists(headings, min_size=3, max_size=3), warm=st.lists(st.tuples(headings, st.integers(1, 9)), max_size=6))
        def check(poles, warm):
            for row in rows:
                row.update(lat=lat, lon=lon, heading=poles[int(row["path"][4:8])])
            (root / "manifest.json").write_text(json.dumps(rows))
            cache = tmp_path / f"cache-{next(caches)}"

            def ask(client, heading, max_records):
                q = HistoryQuery(location=(lat, lon), heading=heading, max_records=max_records, before=date(2025, 1, 1))
                assert answer(client.query(q)) == answer(query_archive(str(root), q))
                return client.last_network_requests

            with HistoryFixtureServer(root) as server:
                with contextlib.closing(RemoteHistoryClient(server.url, cache_dir=cache)) as cold:
                    assert sum(ask(cold, heading, 9) for heading in poles) == 1 + len(rows)
                after_cold = server.stats()
                assert after_cold == {"hits": 1 + len(rows), "history": 1, "image": len(rows)}
                with contextlib.closing(RemoteHistoryClient(server.url, cache_dir=cache)) as again:
                    assert [ask(again, heading, cap) for heading, cap in warm] == [0] * len(warm)
                assert server.stats() == after_cold

        check()


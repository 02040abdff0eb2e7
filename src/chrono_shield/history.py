"""Historical imagery sources: a LocalArchive and a RemoteHistoryClient, each with query().

An archive is a directory with a manifest.json (a JSON array of
{"path", "date", "lat", "lon", "heading"}) plus image files. The remote
protocol is GET {endpoint}/history?lat=..&lon=..[&before=YYYY-MM-DD]
returning every row within the server's radius of the location, any
heading, as the same rows with image_url instead of path, relative to the
endpoint or absolute under it. Matching is geometric only: haversine
radius, heading tolerance, optional date bound; results come back
newest-first.
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import logging
import math
import os
import posixpath
import tempfile
from dataclasses import dataclass, replace
from datetime import date
from urllib.parse import quote, urlencode, urlsplit

from . import codecs
from .configfile import InvalidConfig
from .raster import RasterImage

log = logging.getLogger(__name__)

EARTH_RADIUS_M = 6371.0 * 1000.0

# Largest response body the remote client reads, in bytes; a longer one is
# refused with ProtocolError before it is held in memory.
MAX_BODY_BYTES = 64 * 1024 * 1024

# Characters left as they are when a path is percent-quoted for a request
# target: the reserved set, '%' and '~', as requests' requote_uri keeps them.
_PATH_SAFE = "!#$%&'()*+,/:;=?@[]~"


class ManifestMissing(FileNotFoundError):
    pass


class ManifestMalformed(ValueError):
    pass


class NetworkUnreachable(ConnectionError):
    pass


class ProtocolError(ValueError):
    """The endpoint answered, but not with the expected shape."""


def _check_location(location: tuple[float, float]) -> None:
    lat, lon = location
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude {lat} outside [-90, 90]")
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"longitude {lon} outside [-180, 180]")


@dataclass(frozen=True)
class HistoricalRecord:
    image: RasterImage
    capture_date: date
    location: tuple[float, float]  # (lat, lon)
    heading: float
    source: str  # "archive" | "remote"

    def __post_init__(self):
        _check_location(self.location)
        if self.source not in ("archive", "remote"):
            raise ValueError(f"unknown record source {self.source!r}")


@dataclass(frozen=True)
class HistoryQuery:
    location: tuple[float, float]
    heading: float
    max_records: int = 3
    before: date | None = None

    def __post_init__(self):
        _check_location(self.location)
        if not math.isfinite(self.heading):
            raise ValueError(f"heading {self.heading} is not finite")
        if self.max_records < 1:
            raise ValueError("max_records must be >= 1")


@dataclass(frozen=True)
class MatchPolicy:
    radius_m: float = 25.0
    heading_tol_deg: float = 45.0

    def __post_init__(self):
        # A negative bound matches no row, so every sign would vote alone.
        if self.radius_m < 0 or self.heading_tol_deg < 0:
            raise InvalidConfig(f"radius_m and heading_tol_deg must be >= 0, got {self.radius_m}, {self.heading_tol_deg}")


@dataclass(frozen=True)
class ManifestEntry:
    path: str  # relative to the archive root, or to the endpoint (remote)
    capture_date: date
    lat: float
    lon: float
    heading: float


def haversine_m(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in meters (spherical earth, R = 6371 km)."""
    lat1, lon1 = map(math.radians, a)
    lat2, lon2 = map(math.radians, b)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


def heading_delta_deg(a: float, b: float) -> float:
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def _parse_entry(row, path_key: str) -> ManifestEntry:
    try:
        entry = ManifestEntry(
            path=str(row[path_key]),
            capture_date=date.fromisoformat(str(row["date"])),
            lat=float(row["lat"]),
            lon=float(row["lon"]),
            heading=float(row["heading"]),
        )
        _check_location((entry.lat, entry.lon))
        if not math.isfinite(entry.heading):
            raise ValueError(f"heading {entry.heading} is not finite")
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestMalformed(f"bad manifest row {row!r}: {exc}") from exc
    return entry


def dump_manifest(entries: list[ManifestEntry], path_key: str = "path") -> bytes:
    """The entries as the bare-array JSON form parse_manifest reads."""
    rows = [
        {path_key: e.path, "date": e.capture_date.isoformat(), "lat": e.lat, "lon": e.lon, "heading": e.heading}
        for e in entries
    ]
    return json.dumps(rows).encode()


def parse_manifest(text: str, path_key: str = "path") -> list[ManifestEntry]:
    """The rows of a manifest's text, a JSON array of records."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestMalformed(f"manifest is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ManifestMalformed("manifest nests too deeply to parse") from None
    if not isinstance(doc, list):
        raise ManifestMalformed("manifest must be a JSON array of records")
    return [_parse_entry(row, path_key) for row in doc]


# Kept for the benchmark's local pass, which builds an archive per query
# through query_archive; without it each query re-parses the manifest.
@functools.lru_cache(maxsize=1)
def _parse_archive_manifest(text: str) -> tuple[ManifestEntry, ...]:
    return tuple(parse_manifest(text))


def load_manifest(root) -> list[ManifestEntry]:
    """The archive's manifest rows. The file is read on every call; only
    the parse of the text last read is kept, so an edited file is parsed
    afresh. A manifest that is not UTF-8 is ManifestMalformed."""
    path = os.path.join(root, "manifest.json")
    if not os.path.isfile(path):
        raise ManifestMissing(f"no manifest.json under {root}")
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return list(_parse_archive_manifest(data.decode("utf-8")))
    except UnicodeDecodeError as exc:
        raise ManifestMalformed(f"manifest is not UTF-8: {exc}") from None


def filter_entries(
    entries: list[ManifestEntry],
    query: HistoryQuery,
    policy: MatchPolicy = MatchPolicy(),
) -> list[ManifestEntry]:
    """Radius + heading + date filter, newest first, capped at max_records."""
    # Great-circle distance is at least R * |dlat|, so a row further off in
    # latitude than the radius spans is out of range without a haversine.
    # The relative and absolute slack cover rounding in both computations.
    qlat = query.location[0]
    lat_span = math.degrees(policy.radius_m / EARTH_RADIUS_M) * (1 + 1e-6) + 1e-9
    kept = []
    for e in entries:
        if abs(e.lat - qlat) > lat_span:
            continue
        if haversine_m(query.location, (e.lat, e.lon)) > policy.radius_m:
            continue
        if heading_delta_deg(e.heading, query.heading) > policy.heading_tol_deg:
            continue
        if query.before is not None and e.capture_date >= query.before:
            continue
        kept.append(e)
    kept.sort(key=lambda e: (e.capture_date, e.path), reverse=True)
    return kept[: query.max_records]


def resolve_inside(real_root: str, path: str) -> str | None:
    """The real path of path joined to real_root (a realpath itself), or
    None when it resolves outside real_root: an absolute path, a '..'
    step or a symlink can each lead out of an archive."""
    full = os.path.realpath(os.path.join(real_root, path))
    return full if full.startswith(real_root + os.sep) else None


def _records(entries: list[ManifestEntry], fetch, source: str) -> list[HistoricalRecord]:
    """Records for the entries whose image fetch(entry.path) returns, in
    entry order."""
    records = []
    for e in entries:
        img = fetch(e.path)
        if img is None:
            continue
        records.append(
            HistoricalRecord(
                image=img,
                capture_date=e.capture_date,
                location=(e.lat, e.lon),
                heading=e.heading,
                source=source,
            )
        )
    return records


class LocalArchive:
    """A local archive directory as a history source. Its manifest is read
    and parsed, and the root's real path resolved, once, when it is built,
    so a bad archive fails here and later edits are not seen. query()
    answers as RemoteHistoryClient.query does; an entry whose image is
    missing, unreadable or outside the root is skipped with a logged note."""

    def __init__(self, root, policy: MatchPolicy = MatchPolicy()):
        self.root = str(root)
        self.real_root = os.path.realpath(self.root)
        self.entries = load_manifest(self.root)
        self.policy = policy

    def _load(self, path: str) -> RasterImage | None:
        full = resolve_inside(self.real_root, path)
        if full is None:
            log.warning("skipping archive path %r: it resolves outside %s", path, self.real_root)
            return None
        try:
            return codecs.load_image(full)
        except (OSError, ValueError) as exc:
            log.warning("skipping unreadable archive image %s: %s", full, exc)
            return None

    def query(self, query: HistoryQuery) -> list[HistoricalRecord]:
        """Matching records, newest first."""
        return _records(filter_entries(self.entries, query, self.policy), self._load, "archive")


def query_archive(root, query: HistoryQuery, policy: MatchPolicy = MatchPolicy()) -> list[HistoricalRecord]:
    """LocalArchive(root, policy).query(query), the manifest read afresh.
    Nothing in the package calls it; the benchmark's local pass does."""
    return LocalArchive(root, policy).query(query)


# ---------------------------------------------------------------------------
# Remote client


def _atomic_write(path: str, data: bytes) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _drop_corrupt(path: str, exc: Exception) -> None:
    """A cache entry that does not parse is a miss: delete it so it is fetched again."""
    log.warning("dropping corrupt cache entry %s: %s", path, exc)
    os.remove(path)


def _connection(endpoint: str, timeout: float) -> tuple[http.client.HTTPConnection, str]:
    """An unopened connection to endpoint's host and port, and endpoint's
    path quoted with a trailing '/'. An endpoint that is not an http(s)
    URL with a host and a numeric port is NetworkUnreachable."""
    try:
        parts = urlsplit(endpoint)
        port = parts.port
    except ValueError as exc:
        raise NetworkUnreachable(f"bad history endpoint {endpoint!r}: {exc}") from None
    kind = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}.get(parts.scheme)
    if kind is None or not parts.hostname:
        raise NetworkUnreachable(f"bad history endpoint {endpoint!r}: not an http(s) URL with a host")
    return kind(parts.hostname, port, timeout=timeout), quote(parts.path, safe=_PATH_SAFE) + "/"


class RemoteHistoryClient:
    """HTTP history client with an on-disk response cache.

    Each query fetches its location's whole neighbourhood: /history with
    lat, lon and before only, so the server matches any heading and caps
    nothing. That response is cached under exactly those parameters and
    query() applies the full filter to it, so a warm cache answers any
    heading or max_records at a location with the records a cold query
    would get. Each row's image_url must resolve under the endpoint, or
    the response is a ProtocolError; the cache stores it, and keys its
    image, as a path relative to the endpoint, so a cache warmed against
    one address serves another. Requests go over one kept-alive
    connection, self.session (an http.client connection to the endpoint's
    host), and a reused one that turns out closed is retried once on a
    fresh connection. Redirects are not followed: a 3xx is a non-200 like
    any other. Proxy environment variables and .netrc are not read, and
    HTTPS is verified against the system CA store. Every body is read in
    chunks and refused with ProtocolError past MAX_BODY_BYTES. Cache
    files are written atomically and only after a fully successful
    fetch, so a failed call never leaves partial cache state, and an
    entry that no longer parses is deleted and fetched again. Per-image
    fetch failures are skipped and counted in last_failures ("what
    succeeded plus a warning count"); last_network_requests says whether
    the previous query touched the network at all. Nothing in the package
    reads either; the benchmark's defend workload does.
    """

    def __init__(self, endpoint: str, cache_dir=None, policy: MatchPolicy = MatchPolicy(), timeout: float = 10.0):
        self.endpoint = endpoint.rstrip("/")
        self._base = self.endpoint + "/"
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.policy = policy
        self.session, self._prefix = _connection(self.endpoint, timeout)
        self.last_failures = 0
        self.last_network_requests = 0

    def _cache_path(self, kind: str, key: str, suffix: str) -> str | None:
        if not self.cache_dir:
            return None
        digest = hashlib.sha1(key.encode()).hexdigest()
        return os.path.join(self.cache_dir, kind, digest + suffix)

    def close(self) -> None:
        """Close the kept-alive connection; a later query opens a new one."""
        self.session.close()

    # -- network

    def _get(self, target: str) -> tuple[int, bytes]:
        """Status and body of GET {endpoint}/{target}, target already
        quoted. A reused connection that fails before the status line
        arrives (the server closed it while idle) is tried once more on a
        fresh one. A body over MAX_BODY_BYTES raises ProtocolError; any
        failure closes the connection."""
        self.last_network_requests += 1
        conn = self.session
        url = self._base + target
        reused = conn.sock is not None
        try:
            try:
                conn.request("GET", self._prefix + target)
                resp = conn.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                conn.close()
                conn.request("GET", self._prefix + target)
                resp = conn.getresponse()
            chunks, size = [], 0
            while chunk := resp.read(1 << 16):
                size += len(chunk)
                if size > MAX_BODY_BYTES:
                    raise ProtocolError(f"GET {url} body exceeds {MAX_BODY_BYTES} bytes")
                chunks.append(chunk)
            return resp.status, b"".join(chunks)
        except BaseException as exc:
            conn.close()
            if isinstance(exc, (OSError, http.client.HTTPException)):
                raise NetworkUnreachable(f"GET {url} failed: {exc}") from exc
            raise

    def _image_path(self, url: str) -> str:
        """url as a normalised path relative to the endpoint: url is
        relative to it, or absolute and starts with it. A URL with a scheme
        or host of its own, a host-rooted path or one whose '..' steps
        climb above the endpoint is ManifestMalformed."""
        path = posixpath.normpath(url[len(self._base) :] if url.startswith(self._base) else url)
        head = path.split("/", 1)[0]
        if head in ("", ".", "..") or ":" in head:
            raise ManifestMalformed(f"image_url {url!r} does not resolve under {self.endpoint}")
        return path

    def _parse_rows(self, data: bytes) -> list[ManifestEntry]:
        """The rows of a /history body, each path relative to the endpoint."""
        entries = parse_manifest(data.decode("utf-8"), path_key="image_url")
        return [replace(e, path=self._image_path(e.path)) for e in entries]

    def _fetch_manifest(self, query: HistoryQuery) -> list[ManifestEntry]:
        """Every row the server matches within its radius of the query's
        location, any heading, uncapped."""
        lat, lon = query.location
        params = {"lat": f"{lat:.6f}", "lon": f"{lon:.6f}"}
        if query.before is not None:
            params["before"] = query.before.isoformat()
        query_string = urlencode(params)
        cache_path = self._cache_path("queries", query_string, ".json")
        if cache_path and os.path.exists(cache_path):
            with open(cache_path, "rb") as fh:
                data = fh.read()
            try:
                return self._parse_rows(data)
            except (UnicodeDecodeError, ManifestMalformed) as exc:
                _drop_corrupt(cache_path, exc)
        status, body = self._get("history?" + query_string)
        if status >= 500:
            raise NetworkUnreachable(f"history endpoint returned {status}")
        if status != 200:
            raise ProtocolError(f"history endpoint returned {status}")
        try:
            entries = self._parse_rows(body)
        except (UnicodeDecodeError, ManifestMalformed) as exc:
            raise ProtocolError(str(exc)) from exc
        if cache_path:
            _atomic_write(cache_path, dump_manifest(entries, path_key="image_url"))
        return entries

    def _fetch_image(self, path: str) -> RasterImage | None:
        """The image at path, relative to the endpoint."""
        cache_path = self._cache_path("images", path, ".png")
        if cache_path and os.path.exists(cache_path):
            with open(cache_path, "rb") as fh:
                data = fh.read()
            try:
                return codecs.decode_image(data, codecs.sniff_format(data))
            except ValueError as exc:
                _drop_corrupt(cache_path, exc)
        url = self._base + path
        status, body = self._get(quote(path, safe=_PATH_SAFE))
        if status != 200:
            log.warning("image fetch %s returned %s", url, status)
            return None
        try:
            img = codecs.decode_image(body, codecs.sniff_format(body))
        except ValueError as exc:
            log.warning("image fetch %s undecodable: %s", url, exc)
            return None
        if cache_path:
            _atomic_write(cache_path, body)
        return img

    def query(self, query: HistoryQuery) -> list[HistoricalRecord]:
        """Matching records, newest first. Partial image failures are
        skipped and tallied in last_failures."""
        self.last_failures = 0
        self.last_network_requests = 0
        # Re-apply the geometric filter so remote results obey the same
        # predicates as archive queries regardless of server behavior.
        entries = filter_entries(self._fetch_manifest(query), query, self.policy)
        records = _records(entries, self._fetch_image, "remote")
        self.last_failures = len(entries) - len(records)
        return records


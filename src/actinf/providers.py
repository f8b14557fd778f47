"""World-model providers: whatever proposes posterior beliefs.

The agent never updates beliefs directly; it sends the observation
history and its pushed-forward prior to a provider and gets back a
proposed posterior plus a free-text rationale. Policy rollouts are the
planner's own work (``actinf.planning``) and never cross this boundary.
Three implementations ship:

* TabularProvider - exact Bayes over the scenario's generative model.
* ScriptedProvider - replays a fixed response script, for golden tests.
* RemoteProvider - POSTs the query to an HTTP endpoint speaking the
  wire format below and validates whatever comes back.

A response that fails distribution validation is rejected outright;
repairing (renormalizing) it would hide exactly the provider faults
the executive level is supposed to catch.
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass, replace

import numpy as np

from .dists import CategoricalDistribution
from .errors import (
    DegenerateDistributionError,
    EngineError,
    ProviderError,
    ReplayExhaustedError,
    ShapeError,
)
from .inference import bayes_update
from .model import GenerativeModel


@dataclass(frozen=True)
class WorldModelQuery:
    """Context shipped to a provider for one belief update."""

    observation_history: tuple
    current_belief: CategoricalDistribution

    def __post_init__(self):
        object.__setattr__(self, "observation_history", tuple(self.observation_history))
        stamps = [o.t for o in self.observation_history]
        if any(b <= a for a, b in zip(stamps, stamps[1:])):
            raise ShapeError(f"history timestamps must strictly increase, got {stamps}")


@dataclass(frozen=True)
class WorldModelResponse:
    proposed_posterior: CategoricalDistribution
    rationale: str = ""


@dataclass(frozen=True)
class RefinementSummary:
    """One parameter recalibrated after an episode."""

    level: str
    parameter: str
    old: float
    new: float
    note: str = ""


def validate_response(response: WorldModelResponse, states: tuple[str, ...]) -> None:
    """Reject posteriors over the wrong state labels."""
    if response.proposed_posterior.labels != tuple(states):
        raise ProviderError(
            f"posterior labels {response.proposed_posterior.labels} "
            f"do not match model states {tuple(states)}",
            payload={"labels": list(response.proposed_posterior.labels)},
        )


def query_wire_format(query: WorldModelQuery) -> dict:
    return {
        "history": [
            {"channel": o.channel, "outcome": o.outcome, "t": o.t}
            for o in query.observation_history
        ],
        "belief": {
            "labels": list(query.current_belief.labels),
            "probs": [float(p) for p in query.current_belief.probs],
        },
    }


def response_wire_format(response: WorldModelResponse) -> dict:
    return {
        "posterior": {
            "labels": list(response.proposed_posterior.labels),
            "probs": [float(p) for p in response.proposed_posterior.probs],
        },
        "rationale": response.rationale,
    }


def parse_response(doc) -> WorldModelResponse:
    """Build a validated response from wire-format JSON.

    Malformed structure or an invalid posterior raises ProviderError
    carrying the raw payload; probabilities are never repaired. Keys
    other than ``posterior`` and ``rationale`` are ignored.
    """
    if not isinstance(doc, dict) or "posterior" not in doc:
        raise ProviderError("response has no posterior", payload=doc)
    posterior = doc["posterior"]
    try:
        labels = tuple(posterior["labels"])
        probs = [float(p) for p in posterior["probs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ProviderError(f"unreadable posterior: {exc}", payload=doc) from exc
    try:
        dist = CategoricalDistribution(labels, probs)
    except (DegenerateDistributionError, ShapeError) as exc:
        raise ProviderError(f"invalid posterior: {exc}", payload=doc) from exc
    return WorldModelResponse(
        proposed_posterior=dist,
        rationale=str(doc.get("rationale", "")),
    )


def _trace_key(events) -> tuple:
    return tuple(
        (e.step, e.observation.channel, e.observation.outcome, e.action) for e in events
    )


class WorldModelProvider(abc.ABC):
    """Anything that can propose posterior beliefs."""

    name = "provider"

    @abc.abstractmethod
    def infer(self, query: WorldModelQuery) -> WorldModelResponse:
        ...

    def refine(self, events) -> tuple[RefinementSummary, ...]:
        """Learn from a finished episode; no local parameters here."""
        return ()

    def close(self) -> None:
        """Release what the provider holds open; nothing by default."""


class TabularProvider(WorldModelProvider):
    """Exact Bayes over the scenario model: the reference engine.

    Refinement recalibrates the provider's own observation model: after
    an episode whose first surprise flagged channel X with outcome o
    under dominant state s, the likelihood A[X][s, o] moves toward
    certainty by ``reliability_lr`` and the rest of the row rescales.
    ``self.model`` is rebound to the refined copy; the model it was
    built with is left untouched.
    """

    name = "tabular"

    def __init__(self, model: GenerativeModel, reliability_lr: float = 0.6):
        if not 0.0 <= reliability_lr <= 1.0:
            raise ShapeError(f"reliability_lr must be in [0, 1], got {reliability_lr}")
        self.model = model
        self.reliability_lr = reliability_lr
        self._refined_key: tuple | None = None

    def infer(self, query: WorldModelQuery) -> WorldModelResponse:
        if not query.observation_history:
            raise ProviderError("cannot infer from an empty history", payload=None)
        obs = query.observation_history[-1]
        try:
            column = self.model.a.likelihood_column(obs.channel, obs.outcome)
            posterior = bayes_update(query.current_belief, column, obs=obs)
        except EngineError as exc:
            raise ProviderError(str(exc), payload=None) from exc
        return WorldModelResponse(
            proposed_posterior=posterior,
            rationale=f"exact update on {obs.channel}={obs.outcome}",
        )

    def refine(self, events) -> tuple[RefinementSummary, ...]:
        events = tuple(events)
        key = _trace_key(events)
        if key == self._refined_key:
            return ()
        self._refined_key = key
        flagged = next(
            (
                e
                for e in events
                if any(m.kind == "prediction-error" for m in e.messages)
            ),
            None,
        )
        if flagged is None:
            return ()
        channel = flagged.observation.channel
        outcomes = self.model.channels[channel]
        j = outcomes.index(flagged.observation.outcome)
        s = int(np.argmax(flagged.belief.probs))
        matrix = self.model.a.matrices[channel].copy()
        old = float(matrix[s, j])
        new = old + self.reliability_lr * (1.0 - old)
        rest = 1.0 - old
        scale = (1.0 - new) / rest if rest > 0 else 0.0
        matrix[s] = matrix[s] * scale
        matrix[s, j] = new
        a = self.model.a
        self.model = replace(self.model, a=replace(a, matrices={**a.matrices, channel: matrix}))
        state = self.model.states[s]
        return (
            RefinementSummary(
                level="sensorimotor",
                parameter=f"A[{channel}][{state}][{flagged.observation.outcome}]",
                old=old,
                new=new,
                note="sensor reliability recalibrated after a surprise observation",
            ),
        )


class ScriptedProvider(WorldModelProvider):
    """Replays a fixed response sequence; queries are not consulted."""

    name = "scripted"

    def __init__(self, responses):
        self.responses = tuple(responses)
        self.cursor = 0

    @classmethod
    def from_file(cls, path: str) -> "ScriptedProvider":
        responses = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    responses.append(parse_response(json.loads(line)))
        return cls(responses)

    def infer(self, query: WorldModelQuery) -> WorldModelResponse:
        if self.cursor >= len(self.responses):
            raise ReplayExhaustedError(
                f"script exhausted after {len(self.responses)} responses"
            )
        response = self.responses[self.cursor]
        self.cursor += 1
        return response


def save_script(responses, path: str) -> None:
    """Write responses as wire-format JSONL, loadable by from_file."""
    with open(path, "w", encoding="utf-8") as fh:
        for response in responses:
            fh.write(json.dumps(response_wire_format(response)) + "\n")


def _split_url(url: str, what: str):
    """``urlsplit`` of an http(s) URL with a host and a readable port."""
    from urllib.parse import urlsplit

    try:
        parts = urlsplit(url)
        parts.port  # an unreadable port raises here
    except ValueError as exc:
        raise ProviderError(f"bad {what} URL {url!r}: {exc}", payload=None) from exc
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ProviderError(
            f"bad {what} URL {url!r}: expected http(s)://host[:port]/path", payload=None
        )
    return parts


def _basic_auth(parts) -> str | None:
    """The Basic credentials a URL carries, as a header value, or None."""
    if parts.username is None:
        return None
    import base64
    from urllib.parse import unquote

    pair = f"{unquote(parts.username)}:{unquote(parts.password or '')}"
    return "Basic " + base64.b64encode(pair.encode("latin-1")).decode("ascii")


def _is_dropped(sock) -> bool:
    """True when an idle keep-alive socket is readable: the peer closed it.

    ``poll`` where there is one: ``select.select`` fails on fds >= 1024.
    """
    import select

    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class RemoteProvider(WorldModelProvider):
    """Speaks the HTTP wire contract: one POST per belief update.

    Every request of a provider goes over one keep-alive connection,
    opened on the first ``infer`` and reopened only after a failure or
    when the server has closed it while idle. The environment's proxies
    (``http_proxy``, ``https_proxy``, ``no_proxy``) are read once, here.
    An https endpoint is verified against the system CA store. Redirects
    are not followed, so a 3xx is a provider error like any other status
    but 200.
    """

    name = "remote"

    def __init__(self, url: str, timeout: float = 10.0):
        # the HTTP stack is imported only by a provider that needs it
        import http.client
        import urllib.request

        self.url = url
        parts = _split_url(url, "remote")
        hostport = parts.netloc.rpartition("@")[2]
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._headers = {"Content-Type": "application/json"}
        auth = _basic_auth(parts)
        if auth:
            self._headers["Authorization"] = auth
        self._failures = (OSError, http.client.HTTPException)

        plain, tls = http.client.HTTPConnection, http.client.HTTPSConnection
        proxy = None
        if not urllib.request.proxy_bypass(hostport):
            proxy = urllib.request.getproxies().get(parts.scheme)
        if not proxy:
            cls = tls if parts.scheme == "https" else plain
            self._conn = cls(parts.hostname, parts.port, timeout=timeout)
            return
        via = _split_url(proxy if "://" in proxy else f"http://{proxy}", "proxy")
        proxy_auth = _basic_auth(via)
        if parts.scheme == "https":
            # CONNECT through the proxy, then TLS end to end
            self._conn = tls(via.hostname, via.port, timeout=timeout)
            tunnel_headers = {"Proxy-Authorization": proxy_auth} if proxy_auth else None
            self._conn.set_tunnel(parts.hostname, parts.port, headers=tunnel_headers)
            return
        # plain http goes to the proxy with the absolute URL as the target
        cls = tls if via.scheme == "https" else plain
        self._conn = cls(via.hostname, via.port, timeout=timeout)
        self._target = f"http://{hostport}{self._target}"
        if proxy_auth:
            self._headers["Proxy-Authorization"] = proxy_auth

    def close(self) -> None:
        self._conn.close()

    def infer(self, query: WorldModelQuery) -> WorldModelResponse:
        body = json.dumps(query_wire_format(query)).encode("utf-8")
        conn = self._conn
        try:
            if conn.sock is not None and _is_dropped(conn.sock):
                conn.close()  # http.client reopens it; this is not a retry
            conn.request("POST", self._target, body, self._headers)
            reply = conn.getresponse()
            status, raw = reply.status, reply.read()  # the whole body keeps it reusable
        except self._failures as exc:
            conn.close()
            raise ProviderError(f"remote provider unreachable: {exc}", payload=None) from exc
        if status != 200:
            raise ProviderError(
                f"remote provider returned HTTP {status}",
                payload=raw.decode("utf-8", "replace"),
            )
        try:
            doc = json.loads(raw)  # detects UTF-8, -16 and -32
        except ValueError as exc:
            raise ProviderError(
                "remote provider sent non-JSON", payload=raw.decode("utf-8", "replace")
            ) from exc
        return parse_response(doc)

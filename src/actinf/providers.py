"""World-model providers: whatever proposes posterior beliefs.

The agent never updates beliefs directly; it sends the observation
history and its pushed-forward prior to a provider and gets back a
proposed posterior plus a free-text rationale. Policy rollouts are the
planner's own work (``actinf.planning``) and never cross this boundary.
Three implementations ship:

* TabularProvider - exact Bayes over the scenario's generative model.
* ScriptedProvider - replays a fixed response script, for golden tests:
  response k answers step k.
* RemoteProvider - POSTs the query to an HTTP endpoint speaking the
  wire format below and validates whatever comes back.

A response that fails distribution validation is rejected outright;
repairing (renormalizing) it, or converting a label or a probability
that is not a JSON string or number, would hide exactly the provider
faults the executive level is supposed to catch. ``json`` and the HTTP
stack are imported by the functions that use them, not by importing
this module.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import NamedTuple

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


class WorldModelResponse(NamedTuple):
    proposed_posterior: CategoricalDistribution
    rationale: str = ""


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
    carrying the raw payload; nothing is repaired. Labels must be JSON
    strings and probabilities JSON numbers: a string such as "0.7", a
    boolean or a numeric label is refused, not converted. Keys other
    than ``posterior`` and ``rationale`` are ignored.
    """
    if not isinstance(doc, dict) or "posterior" not in doc:
        raise ProviderError("response has no posterior", payload=doc)
    posterior = doc["posterior"]
    try:
        labels, probs = posterior["labels"], posterior["probs"]
    except (KeyError, TypeError) as exc:
        raise ProviderError(f"unreadable posterior: {exc}", payload=doc) from exc
    if not (isinstance(labels, list) and all(type(x) is str for x in labels)):
        raise ProviderError("unreadable posterior: labels must be a list of strings", payload=doc)
    # bool is an int subclass, so the types are compared exactly
    if not (isinstance(probs, list) and all(type(p) in (int, float) for p in probs)):
        raise ProviderError("unreadable posterior: probs must be a list of numbers", payload=doc)
    try:
        dist = CategoricalDistribution(labels, probs)
    except (DegenerateDistributionError, ShapeError) as exc:
        raise ProviderError(f"invalid posterior: {exc}", payload=doc) from exc
    return WorldModelResponse(
        proposed_posterior=dist,
        rationale=str(doc.get("rationale", "")),
    )


class WorldModelProvider(abc.ABC):
    """Anything that can propose posterior beliefs."""

    name = "provider"

    @abc.abstractmethod
    def infer(self, query: WorldModelQuery) -> WorldModelResponse:
        ...

    def close(self) -> None:
        """Release what the provider holds open; nothing by default."""


class TabularProvider(WorldModelProvider):
    """Exact Bayes over the model it was built with: the reference engine.

    The response is a pure function of the belief's labels and numbers
    and the latest observation, so the model's memo keeps it under
    those; a failed update raises and is never stored.
    """

    name = "tabular"

    def __init__(self, model: GenerativeModel):
        self.model = model

    def infer(self, query: WorldModelQuery) -> WorldModelResponse:
        if not query.observation_history:
            raise ProviderError("cannot infer from an empty history", payload=None)
        obs = query.observation_history[-1]
        belief = query.current_belief
        # labels too: bayes_update checks the belief's shape only
        key = ("bayes", belief.labels, belief.probs.tobytes(), obs.channel, obs.outcome)
        return self.model.memoized(key, lambda: self._update(belief, obs))

    def _update(self, belief: CategoricalDistribution, obs) -> WorldModelResponse:
        try:
            column = self.model.a.likelihood_column(obs.channel, obs.outcome)
            posterior = bayes_update(belief, column, obs=obs)
        except EngineError as exc:
            raise ProviderError(str(exc), payload=None) from exc
        return WorldModelResponse(
            proposed_posterior=posterior,
            rationale=f"exact update on {obs.channel}={obs.outcome}",
        )


class ScriptedProvider(WorldModelProvider):
    """Replays a fixed response sequence by history length.

    Response k answers the query whose history holds k + 1 observations,
    that is step k of an episode; nothing else of the query is read, and
    nothing is kept between queries. A response may be a ProviderError,
    which its step raises afresh each time it is asked.
    """

    name = "scripted"

    def __init__(self, responses):
        self.responses = tuple(responses)

    @classmethod
    def from_file(cls, path: str) -> "ScriptedProvider":
        """Read a JSONL script. A line that is no valid response becomes
        the provider error of the step it answers, as a remote's reply would."""
        import json

        responses = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                try:
                    responses.append(parse_response(json.loads(line)))
                except ValueError:  # from json.loads; parse_response raises ProviderError
                    responses.append(ProviderError("scripted response is not JSON", payload=line))
                except ProviderError as exc:
                    responses.append(exc)
        return cls(responses)

    def infer(self, query: WorldModelQuery) -> WorldModelResponse:
        k = len(query.observation_history) - 1
        if k < 0:
            raise ProviderError("cannot infer from an empty history", payload=None)
        if k >= len(self.responses):
            raise ReplayExhaustedError(
                f"script exhausted after {len(self.responses)} responses"
            )
        response = self.responses[k]
        if isinstance(response, ProviderError):
            raise ProviderError(str(response), payload=response.payload)
        return response


def save_script(responses, path: str) -> None:
    """Write responses as wire-format JSONL, loadable by from_file."""
    import json

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
        # no_proxy is consulted only when a proxy would be used
        proxy = urllib.request.getproxies().get(parts.scheme)
        if proxy and urllib.request.proxy_bypass(hostport):
            proxy = None
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
        import json

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

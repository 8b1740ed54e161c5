"""The synthetic world: a knowledge base shared by the QA engine, the
HotpotQA-like dataset generator and the "LLM as database" application.

The simulated LLM "knows" these facts the way a real LLM knows pre-training
facts. Because both the question generator and the answer engine read the
same :class:`KnowledgeBase`, the engine genuinely *derives* answers (multi-
hop traversal) rather than looking up question→answer pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro._util import rng_from


@dataclass(frozen=True)
class Fact:
    """One (subject, relation, object) triple."""

    subject: str
    relation: str
    object: object

    def __str__(self) -> str:
        return f"({self.subject} --{self.relation}--> {self.object})"


class KnowledgeBase:
    """Triple store with subject and relation indexes."""

    def __init__(self) -> None:
        self.facts: List[Fact] = []
        self._by_subject: Dict[str, List[Fact]] = {}
        self._by_relation: Dict[str, List[Fact]] = {}
        self.entity_types: Dict[str, str] = {}

    def add(self, subject: str, relation: str, obj: object, subject_type: Optional[str] = None) -> Fact:
        """Insert one fact (and optionally tag the subject's type)."""
        fact = Fact(subject=subject, relation=relation, object=obj)
        self.facts.append(fact)
        self._by_subject.setdefault(subject.lower(), []).append(fact)
        self._by_relation.setdefault(relation, []).append(fact)
        if subject_type:
            self.entity_types[subject] = subject_type
        return fact

    def __len__(self) -> int:
        return len(self.facts)

    def query(
        self,
        subject: Optional[str] = None,
        relation: Optional[str] = None,
        obj: Optional[object] = None,
    ) -> List[Fact]:
        """All facts matching the given (possibly partial) pattern."""
        if subject is not None:
            candidates = self._by_subject.get(subject.lower(), [])
        elif relation is not None:
            candidates = self._by_relation.get(relation, [])
        else:
            candidates = self.facts
        out = []
        for fact in candidates:
            if relation is not None and fact.relation != relation:
                continue
            if obj is not None and fact.object != obj:
                continue
            out.append(fact)
        return out

    def one(self, subject: str, relation: str) -> Optional[object]:
        """The object of the first matching fact, or None."""
        facts = self.query(subject=subject, relation=relation)
        return facts[0].object if facts else None

    def subjects_with(self, relation: str, obj: object) -> List[str]:
        """All subjects s such that (s, relation, obj) holds."""
        return [f.subject for f in self._by_relation.get(relation, []) if f.object == obj]

    def entities_of_type(self, entity_type: str) -> List[str]:
        return sorted(e for e, t in self.entity_types.items() if t == entity_type)

    def relations(self) -> List[str]:
        return sorted(self._by_relation)

    def iter_facts(self) -> Iterator[Fact]:
        return iter(self.facts)


# --------------------------------------------------------------------------
# Deterministic world generation
# --------------------------------------------------------------------------

_FIRST_SYLLABLES = [
    "Al", "Ber", "Car", "Dan", "El", "Fer", "Gus", "Hel", "Ivo", "Jor",
    "Kar", "Lue", "Mar", "Nor", "Oli", "Pet", "Quin", "Ros", "Sam", "Tor",
]
_SECOND_SYLLABLES = ["an", "en", "in", "on", "ar", "er", "or", "ia", "io", "us"]
_SURNAME_PARTS = [
    "Vald", "Mor", "Hart", "Lind", "Bren", "Cald", "Dray", "Fenn", "Gray", "Holt",
    "Kess", "Lorn", "Mend", "Nash", "Orr", "Pell", "Quill", "Rook", "Stell", "Thorn",
]
_SURNAME_ENDS = ["er", "man", "son", "wick", "field", "worth", "ley", "by", "ton", "gate"]
_CITY_PARTS = ["River", "Stone", "Green", "North", "South", "East", "West", "Gold", "Silver", "Iron"]
_CITY_ENDS = ["ford", "port", "burg", "ville", "haven", "dale", "mouth", "stead", "bridge", "field"]
_COUNTRIES = [
    "Aurelia", "Borvia", "Caldora", "Drevany", "Eastmark", "Fenwick",
    "Galdova", "Hestria", "Ivoria", "Jastania",
]
_FILM_ADJ = ["Silent", "Crimson", "Golden", "Hidden", "Broken", "Distant", "Frozen", "Burning", "Velvet", "Hollow"]
_FILM_NOUN = ["Harbor", "Empire", "Garden", "Mirror", "Voyage", "Winter", "Canyon", "Signal", "Orchid", "Meridian"]
_TEAM_NOUN = ["Falcons", "Tigers", "Mariners", "Comets", "Wolves", "Royals", "Giants", "Hawks", "Pioneers", "Rangers"]
_SPORTS = ["Basketball", "Football", "Baseball", "Hockey", "Tennis", "Volleyball", "Rugby", "Cricket"]


def _person_name(rng: np.random.Generator) -> str:
    first = rng.choice(_FIRST_SYLLABLES) + rng.choice(_SECOND_SYLLABLES)
    last = rng.choice(_SURNAME_PARTS) + rng.choice(_SURNAME_ENDS)
    return f"{first} {last}"


@dataclass
class World:
    """A generated world plus convenience entity lists."""

    kb: KnowledgeBase
    people: List[str] = field(default_factory=list)
    films: List[str] = field(default_factory=list)
    teams: List[str] = field(default_factory=list)
    cities: List[str] = field(default_factory=list)
    countries: List[str] = field(default_factory=list)


def build_world(
    seed: int = 0,
    n_people: int = 60,
    n_films: int = 30,
    n_teams: int = 12,
    n_cities: int = 15,
) -> World:
    """Generate a deterministic world of people, films, teams and places.

    Relations produced:
    ``directed_by``, ``starred``, ``released_in`` (films);
    ``born_in``, ``born_year``, ``profession``, ``plays_for`` (people);
    ``based_in``, ``plays_sport``, ``founded_in`` (teams);
    ``located_in``, ``population`` (cities).
    """
    rng = rng_from(seed)
    kb = KnowledgeBase()
    world = World(kb=kb)

    world.countries = list(_COUNTRIES)
    for country in world.countries:
        kb.entity_types[country] = "country"

    used_names: set = set()

    def fresh(maker) -> str:
        for _attempt in range(200):
            name = maker()
            if name not in used_names:
                used_names.add(name)
                return name
        raise RuntimeError("name space exhausted; enlarge the generators")

    for _i in range(n_cities):
        city = fresh(lambda: str(rng.choice(_CITY_PARTS)) + str(rng.choice(_CITY_ENDS)))
        country = str(rng.choice(world.countries))
        kb.add(city, "located_in", country, subject_type="city")
        kb.add(city, "population", int(rng.integers(50, 5000)) * 1000)
        world.cities.append(city)

    for _i in range(n_people):
        person = fresh(lambda: _person_name(rng))
        city = str(rng.choice(world.cities))
        kb.add(person, "born_in", city, subject_type="person")
        kb.add(person, "born_year", int(rng.integers(1940, 2001)))
        world.people.append(person)

    directors = world.people[: max(4, n_people // 6)]
    actors = world.people[len(directors) : len(directors) + max(8, n_people // 2)]
    players = world.people[len(directors) + len(actors) :]
    for person in directors:
        kb.add(person, "profession", "director")
    for person in actors:
        kb.add(person, "profession", "actor")
    for person in players:
        kb.add(person, "profession", "athlete")

    for _i in range(n_teams):
        team = fresh(
            lambda: str(rng.choice(_CITY_PARTS)) + " " + str(rng.choice(_TEAM_NOUN))
        )
        city = str(rng.choice(world.cities))
        kb.add(team, "based_in", city, subject_type="team")
        kb.add(team, "plays_sport", str(rng.choice(_SPORTS)))
        kb.add(team, "founded_in", int(rng.integers(1900, 1996)))
        world.teams.append(team)

    for player in players:
        kb.add(player, "plays_for", str(rng.choice(world.teams)))

    for _i in range(n_films):
        film = fresh(
            lambda: "The " + str(rng.choice(_FILM_ADJ)) + " " + str(rng.choice(_FILM_NOUN))
        )
        director = str(rng.choice(directors))
        kb.add(film, "directed_by", director, subject_type="film")
        kb.add(film, "released_in", int(rng.integers(1960, 2023)))
        cast_size = int(rng.integers(1, 4))
        cast_idx = rng.choice(len(actors), size=min(cast_size, len(actors)), replace=False)
        for idx in cast_idx:
            kb.add(film, "starred", actors[int(idx)])
        world.films.append(film)

    return world

"""Repository corpora with planted structure, for clustering and search.

The paper's registry scenarios (section 2: "thousands of schemata" in the
DoD MDR; section 5: schema clustering and schema search) need a corpus whose
true structure is known.  :func:`generate_clustered_corpus` plants disjoint
concept *domains* (communities of interest) and emits several schemata per
domain; recovering the domains is the clustering task (E9), and ranking
same-domain schemata first for a query schema is the search task (E10).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.schema.serialize import schema_from_dict, schema_to_dict
from repro.synthetic.domain import COMMON_FACETS, DomainOntology
from repro.synthetic.generator import (
    GeneratedSchema,
    allocate,
    facet_order,
    generate_schema,
)
from repro.synthetic.naming import NamingStyle
from repro.text.tokenize import split_identifier

__all__ = [
    "ClusteredCorpus",
    "generate_clustered_corpus",
    "generate_enterprise_corpus",
    "generate_scaled_corpus",
]

_STYLE_ROTATION = (
    NamingStyle.legacy_relational(),
    NamingStyle.xml_exchange(),
    NamingStyle(case="lower_snake", synonym_probability=0.2, abbreviate_probability=0.25),
    NamingStyle(case="camel", synonym_probability=0.3, abbreviate_probability=0.1),
)
_KIND_ROTATION = ("relational", "xml", "relational", "xml")


@dataclass
class ClusteredCorpus:
    """Generated schemata plus the planted domain labels."""

    schemata: list[GeneratedSchema]
    domain_of: dict[str, int]                 # schema name -> planted domain index
    domain_concepts: list[list[str]]          # per-domain concept pools

    @property
    def names(self) -> list[str]:
        return [generated.schema.name for generated in self.schemata]

    def labels(self) -> list[int]:
        """Planted labels aligned with :attr:`schemata` order."""
        return [self.domain_of[generated.schema.name] for generated in self.schemata]

    def by_name(self, name: str) -> GeneratedSchema:
        for generated in self.schemata:
            if generated.schema.name == name:
                return generated
        raise KeyError(f"no schema named {name!r} in corpus")


def generate_clustered_corpus(
    n_domains: int = 4,
    schemata_per_domain: int = 6,
    concepts_per_domain: int = 12,
    concepts_per_schema: int = 8,
    noise_concepts: int = 1,
    children_per_concept: int = 6,
    seed: int = 2009,
    ontology: DomainOntology | None = None,
) -> ClusteredCorpus:
    """Plant ``n_domains`` disjoint concept pools and emit schemata over them.

    Each schema samples ``concepts_per_schema`` concepts from its domain's
    pool plus ``noise_concepts`` from other domains' pools (real registries
    are not perfectly separated), with rotating naming styles and kinds.
    """
    if concepts_per_schema > concepts_per_domain:
        raise ValueError("concepts_per_schema cannot exceed the domain pool size")
    ontology = ontology if ontology is not None else DomainOntology()
    rng = random.Random(f"corpus::{seed}")

    domain_concepts: list[list[str]] = []
    used: set[str] = set()
    for _ in range(n_domains):
        pool = ontology.sample_concepts(concepts_per_domain, rng, exclude=used)
        used |= set(pool)
        domain_concepts.append(pool)

    schemata: list[GeneratedSchema] = []
    domain_of: dict[str, int] = {}
    for domain_index in range(n_domains):
        for ordinal in range(schemata_per_domain):
            name = f"D{domain_index}S{ordinal}"
            keys = rng.sample(domain_concepts[domain_index], concepts_per_schema)
            # One domain has no other to borrow noise from; the draw is
            # skipped so the rng sequence of every wider corpus is unchanged.
            for _ in range(noise_concepts if n_domains > 1 else 0):
                other_domain = rng.randrange(n_domains - 1)
                if other_domain >= domain_index:
                    other_domain += 1
                noise_key = rng.choice(domain_concepts[other_domain])
                if noise_key not in keys:
                    keys.append(noise_key)
            capacities = [len(facet_order(ontology, key)) for key in keys]
            children = allocate(
                children_per_concept * len(keys), capacities, minimum=2
            )
            rotation = (domain_index * schemata_per_domain + ordinal) % len(
                _STYLE_ROTATION
            )
            schemata.append(
                generate_schema(
                    name,
                    keys,
                    children,
                    style=_STYLE_ROTATION[rotation],
                    kind=_KIND_ROTATION[rotation],
                    seed=f"{seed}::{name}",
                    ontology=ontology,
                )
            )
            domain_of[name] = domain_index

    return ClusteredCorpus(
        schemata=schemata, domain_of=domain_of, domain_concepts=domain_concepts
    )


def generate_enterprise_corpus(
    n_schemata: int = 100,
    n_domains: int = 10,
    concepts_per_domain: int = 10,
    concepts_per_schema: int = 6,
    children_per_concept: int = 5,
    seed: int = 2009,
    ontology: DomainOntology | None = None,
) -> ClusteredCorpus:
    """A repository-scale corpus: ``n_schemata`` schemata over ``n_domains``.

    The paper's section-2 registry setting ("hundreds to thousands of
    schemata") sized for the E17 corpus-matching bench: domains stay
    disjoint concept pools (so same-domain schemata are the ground-truth
    relevant set for any query schema), schemata stay small enough that a
    hundred of them register, index, and match in seconds.  Domains are
    filled round-robin, so ``n_schemata`` need not divide evenly.
    """
    if n_schemata < n_domains:
        raise ValueError(
            f"need at least one schema per domain ({n_schemata} < {n_domains})"
        )
    per_domain = -(-n_schemata // n_domains)  # ceil
    corpus = generate_clustered_corpus(
        n_domains=n_domains,
        schemata_per_domain=per_domain,
        concepts_per_domain=concepts_per_domain,
        concepts_per_schema=concepts_per_schema,
        children_per_concept=children_per_concept,
        seed=seed,
        ontology=ontology,
    )
    if len(corpus.schemata) == n_schemata:
        return corpus
    # Trim the overshoot; the generation order means the last domain(s)
    # simply hold fewer schemata, and domain_of stays the ground truth.
    kept = corpus.schemata[:n_schemata]
    kept_names = {generated.schema.name for generated in kept}
    return ClusteredCorpus(
        schemata=kept,
        domain_of={
            name: domain
            for name, domain in corpus.domain_of.items()
            if name in kept_names
        },
        domain_concepts=corpus.domain_concepts,
    )


#: Tokens every domain shares, dialect or not: the common bookkeeping
#: facets appear in (almost) every real schema, so their document
#: frequency approaches the corpus size -- exactly the low-idf long tail
#: retrieval pruning exists to skip.
_SHARED_VOCAB = frozenset(
    token.lower() for facet in COMMON_FACETS for token in facet.tokens
)


def _dialect_tag(domain_index: int) -> str:
    """A letters-only tag for a domain, e.g. ``dxa``, ``dxb``, ``dxba``.

    Fused onto lowercase tokens it survives the identifier splitter as
    ONE token (a lowercase run), which is what makes a dialected domain
    vocabulary disjoint from every other domain's.  The ``dx`` prefix
    keeps tags clear of real ontology vocabulary; letters only, because a
    digit would split the fused token back apart.
    """
    digits = []
    value = domain_index
    while True:
        digits.append(chr(ord("a") + value % 26))
        value //= 26
        if not value:
            break
    return "dx" + "".join(reversed(digits))


def _dialect_text(text: str, tag: str, joiner: str) -> str:
    tokens = [
        token.lower() if not token.isalpha() or token.lower() in _SHARED_VOCAB
        else tag + token.lower()
        for token in split_identifier(text)
    ]
    return joiner.join(tokens) if tokens else text


def _dialect_payload(payload: dict, name: str, tag: str) -> dict:
    """Re-voice one serialised schema into a domain dialect.

    Every alphabetic token of element names and documentation gets the
    domain tag fused on -- EXCEPT the common-facet vocabulary, which
    stays shared corpus-wide.  Element ids, structure, types, and the
    schema kind are untouched, so the dialected schema profiles and
    validates exactly like its base.
    """
    out = dict(payload)
    out["name"] = name
    if out.get("documentation"):
        out["documentation"] = _dialect_text(out["documentation"], tag, " ")
    elements = []
    for element in payload["elements"]:
        element = dict(element)
        element["name"] = _dialect_text(element["name"], tag, "_")
        if element.get("documentation"):
            element["documentation"] = _dialect_text(
                element["documentation"], tag, " "
            )
        elements.append(element)
    out["elements"] = elements
    return out


def generate_scaled_corpus(
    n_schemata: int,
    schemata_per_domain: int = 50,
    n_base_domains: int = 8,
    concepts_per_domain: int = 10,
    concepts_per_schema: int = 5,
    children_per_concept: int = 3,
    seed: int = 2009,
    ontology: DomainOntology | None = None,
) -> ClusteredCorpus:
    """A 10k-schema-scale corpus: many domains, constant domain size.

    The ontology holds a few hundred concept identities, so truly
    disjoint concept pools cap out near thirty domains --
    :func:`generate_enterprise_corpus` territory.  This generator scales
    past that with *dialects*: a small set of base domains is generated
    once, and each scaled domain re-voices one of them by fusing a
    domain tag onto every schema-specific token (common bookkeeping
    facets stay shared corpus-wide, see ``_SHARED_VOCAB``).  The result
    at any size:

    * each domain's vocabulary is disjoint from every other domain's,
      so a query schema's true candidate set is its own domain --
      constant at ``schemata_per_domain`` as ``n_schemata`` grows
      (``n_domains`` scales instead), which is what lets bench E21 hold
      p50 retrieval latency flat from 1k to 10k;
    * the shared facet tokens have document frequency ~= corpus size,
      the low-idf long tail that an unpruned scorer must scan in full;
    * ``domain_of`` stays exact ground truth (``D{domain}S{ordinal}``
      names, domain-major order), so clustering/search quality harnesses
      work unchanged.
    """
    if n_schemata < 1:
        raise ValueError(f"n_schemata must be >= 1, got {n_schemata}")
    if schemata_per_domain < 1:
        raise ValueError(
            f"schemata_per_domain must be >= 1, got {schemata_per_domain}"
        )
    if n_base_domains < 1:
        raise ValueError(f"n_base_domains must be >= 1, got {n_base_domains}")
    base = generate_clustered_corpus(
        n_domains=n_base_domains,
        schemata_per_domain=schemata_per_domain,
        concepts_per_domain=concepts_per_domain,
        concepts_per_schema=concepts_per_schema,
        children_per_concept=children_per_concept,
        seed=seed,
        ontology=ontology,
    )
    n_domains = -(-n_schemata // schemata_per_domain)  # ceil
    schemata: list[GeneratedSchema] = []
    domain_of: dict[str, int] = {}
    domain_concepts: list[list[str]] = []
    for domain_index in range(n_domains):
        base_domain = domain_index % n_base_domains
        domain_concepts.append(base.domain_concepts[base_domain])
        tag = _dialect_tag(domain_index)
        for ordinal in range(schemata_per_domain):
            if len(schemata) == n_schemata:
                break
            generated = base.schemata[base_domain * schemata_per_domain + ordinal]
            name = f"D{domain_index}S{ordinal}"
            payload = _dialect_payload(
                schema_to_dict(generated.schema), name, tag
            )
            schemata.append(
                GeneratedSchema(
                    schema=schema_from_dict(payload),
                    concept_of_root=generated.concept_of_root,
                    facet_of_element=generated.facet_of_element,
                )
            )
            domain_of[name] = domain_index
    return ClusteredCorpus(
        schemata=schemata, domain_of=domain_of, domain_concepts=domain_concepts
    )

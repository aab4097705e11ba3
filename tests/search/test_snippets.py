"""Tests for query-biased snippet generation.

The one-pass generator in ``repro.search.snippets`` is checked against
the two-pass generator it replaced, kept here verbatim as the oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DocumentNotIndexedError
from repro.nlp.sentences import _ABBREVIATIONS, split_sentences
from repro.nlp.stemmer import porter_stem
from repro.nlp.stopwords import is_stopword
from repro.nlp.tokenizer import tokenize, tokenize_words
from repro.search.analyzer import Analyzer
from repro.search.bm25 import Bm25Scorer
from repro.search.engine import NewsLinkEngine
from repro.search.inverted_index import InvertedIndex
from repro.search.snippets import Snippet, SnippetGenerator

DOCUMENT = (
    "The festival opened with music downtown. "
    "Taliban militants attacked a checkpoint near Peshawar overnight. "
    "Officials said casualties were still being counted. "
    "Weather stayed mild through the weekend."
)


class TestSnippetGenerator:
    def test_picks_matching_sentences(self):
        generator = SnippetGenerator(highlight=None)
        snippet = generator.generate(DOCUMENT, "Taliban attack near Peshawar")
        assert "Taliban" in snippet.text
        assert "festival" not in snippet.text
        assert snippet.score > 0

    def test_offsets_point_into_source(self):
        generator = SnippetGenerator(highlight=None)
        snippet = generator.generate(DOCUMENT, "checkpoint casualties")
        assert DOCUMENT[snippet.start : snippet.end] == snippet.text

    def test_highlighting(self):
        generator = SnippetGenerator()
        snippet = generator.generate(DOCUMENT, "Taliban checkpoint")
        assert "**Taliban**" in snippet.text
        assert "**checkpoint**" in snippet.text

    def test_stemmed_match_highlighted(self):
        generator = SnippetGenerator()
        snippet = generator.generate(DOCUMENT, "attacking militant")
        # "attacked"/"militants" share stems with the query terms
        assert "**attacked**" in snippet.text or "**militants**" in snippet.text

    def test_no_match_falls_back_to_first_window(self):
        generator = SnippetGenerator(highlight=None)
        snippet = generator.generate(DOCUMENT, "zzz qqq")
        assert snippet.text.startswith("The festival")
        assert snippet.score == 0.0

    def test_empty_document(self):
        snippet = SnippetGenerator().generate("", "anything")
        assert snippet.text == ""

    def test_window_size_one(self):
        generator = SnippetGenerator(max_sentences=1, highlight=None)
        snippet = generator.generate(DOCUMENT, "casualties")
        assert snippet.text == "Officials said casualties were still being counted."

    def test_idf_weighting_prefers_rare_terms(self):
        index = InvertedIndex()
        analyzer = Analyzer()
        # "common" appears everywhere, "peshawar" once.
        for i in range(10):
            index.add_document(f"d{i}", analyzer.analyze("common words here"))
        index.add_document("dx", analyzer.analyze(DOCUMENT))
        generator = SnippetGenerator(
            analyzer, Bm25Scorer(index), max_sentences=1, highlight=None
        )
        text = (
            "Some common words occurred. "
            "Peshawar saw the real event happen."
        )
        snippet = generator.generate(text, "common Peshawar")
        assert "Peshawar" in snippet.text


# ----------------------------------------------------------------------
# Reference: the pre-change analysis chain and two-pass generator.
# ----------------------------------------------------------------------
def reference_tokenize_words(text: str) -> list[str]:
    """The Token-object word chain ``tokenize_words`` used to be."""
    return [token.text.lower() for token in tokenize(text) if token.is_word]


class ReferenceAnalyzer:
    """``Analyzer.analyze`` as it was: Token objects, then stop/stem."""

    def analyze(self, text: str) -> list[str]:
        terms = []
        for word in reference_tokenize_words(text):
            if is_stopword(word):
                continue
            terms.append(porter_stem(word))
        return terms


class ReferenceSnippetGenerator:
    """The two-pass generator: ``generate`` / ``_apply_highlight`` verbatim."""

    def __init__(
        self,
        analyzer=None,
        scorer: Bm25Scorer | None = None,
        max_sentences: int = 2,
        highlight: tuple[str, str] | None = ("**", "**"),
    ) -> None:
        self._analyzer = analyzer or ReferenceAnalyzer()
        self._scorer = scorer  # supplies IDF when available
        self._max_sentences = max_sentences
        self._highlight = highlight

    def _term_weight(self, term: str) -> float:
        if self._scorer is None:
            return 1.0
        return max(self._scorer.idf(term), 0.0)

    def generate(self, document_text: str, query: str) -> Snippet:
        query_terms = set(self._analyzer.analyze(query))
        sentences = split_sentences(document_text)
        if not sentences:
            return Snippet(text="", start=0, end=0, score=0.0)
        sentence_scores = []
        for sentence in sentences:
            terms = self._analyzer.analyze(sentence.text)
            matched = set(terms) & query_terms
            sentence_scores.append(sum(self._term_weight(t) for t in matched))
        best_start = 0
        best_key = (-1.0, -1.0)
        best_score = 0.0
        window = min(self._max_sentences, len(sentences))
        for start in range(len(sentences) - window + 1):
            score = sum(sentence_scores[start : start + window])
            # Tie-break towards windows that *lead* with the matching
            # sentence, so matches are not trailed by unrelated context.
            key = (score, sentence_scores[start])
            if key > best_key:
                best_key = key
                best_score = score
                best_start = start
        first = sentences[best_start]
        last = sentences[best_start + window - 1]
        extract = document_text[first.start : last.end]
        if self._highlight and query_terms:
            extract = self._apply_highlight(extract, query_terms)
        return Snippet(
            text=extract,
            start=first.start,
            end=last.end,
            score=max(best_score, 0.0),
        )

    def _apply_highlight(self, text: str, query_terms: set[str]) -> str:
        """Wrap matched words with the highlight markers."""
        assert self._highlight is not None
        open_mark, close_mark = self._highlight
        pieces: list[str] = []
        cursor = 0
        for token in tokenize(text):
            if not token.is_word:
                continue
            analyzed = self._analyzer.analyze(token.text)
            if analyzed and analyzed[0] in query_terms:
                pieces.append(text[cursor : token.start])
                pieces.append(f"{open_mark}{text[token.start : token.end]}{close_mark}")
                cursor = token.end
        pieces.append(text[cursor:])
        return "".join(pieces)


# ----------------------------------------------------------------------
# Generated documents and queries.
# ----------------------------------------------------------------------
# Stem-equal families, stopwords, apostrophes, non-ASCII letters (some of
# which lowercase to ASCII), and every sentence-splitter abbreviation.
_WORDS = [
    "attack", "attacked", "attacking", "attacks",
    "militant", "militants", "market", "markets", "Market",
    "bomb", "bombed", "bombing", "city", "cities", "Peshawar", "Taliban",
    "the", "The", "of", "and", "was", "said", "it's", "don't", "won't",
    "rock'n'roll", "O'Neil", "café", "naïve", "Zürich", "İstanbul", "\u212aelvin",
    "x", "A", "I",
] + sorted(_ABBREVIATIONS)
_NUMBERS = ["1,000", "3.14", "3.14.", "2016", "7", "1a", "12abc", "4,5,6"]
_PUNCTUATION = [".", "!", "?", "!?", "?!!", "...", ",", ";", ":", "-", "'", '"', "(", ")"]
_SPACES = [" ", " ", " ", "  ", "\n", "\t", "\n\n", "\n \n", "\u00a0", "\r\n"]

_pieces = st.one_of(
    st.sampled_from(_WORDS),
    st.sampled_from(_WORDS),
    st.sampled_from(_NUMBERS),
    st.sampled_from(_PUNCTUATION),
    st.sampled_from(_SPACES),
    st.sampled_from(_SPACES),
)
documents = st.lists(_pieces, max_size=60).map("".join)
queries = st.one_of(
    st.just(""),
    st.lists(st.sampled_from(["the", "of", "and", "was"]), max_size=3).map(" ".join),
    st.lists(st.sampled_from(_WORDS + _NUMBERS), max_size=8).map(" ".join),
    documents,
)


def _scorer() -> Bm25Scorer:
    """IDF weights that differ per term, so summation order would show."""
    analyzer = Analyzer()
    index = InvertedIndex()
    for i, word in enumerate(_WORDS):
        text = " ".join(_WORDS[i : i + 1 + i % 7])
        index.add_document(f"d{i}", analyzer.analyze(text))
    return Bm25Scorer(index)


_SCORER = _scorer()


class TestOnePassEqualsReference:
    @settings(max_examples=400, deadline=None)
    @given(
        document=documents,
        query=queries,
        max_sentences=st.sampled_from([1, 2, 3]),
        highlight=st.sampled_from([("**", "**"), None]),
        scored=st.booleans(),
    )
    def test_snippet_fields_equal(
        self, document, query, max_sentences, highlight, scored
    ):
        scorer = _SCORER if scored else None
        got = SnippetGenerator(
            Analyzer(), scorer, max_sentences, highlight
        ).generate(document, query)
        want = ReferenceSnippetGenerator(
            ReferenceAnalyzer(), scorer, max_sentences, highlight
        ).generate(document, query)
        assert got.text == want.text
        assert (got.start, got.end) == (want.start, want.end)
        assert got.score == want.score

    @settings(max_examples=300, deadline=None)
    @given(text=documents)
    def test_analysis_chain_equal(self, text):
        # Indexing depends on this: same terms, same order, as before.
        analyzer = Analyzer()
        assert analyzer.analyze(text) == ReferenceAnalyzer().analyze(text)
        assert tokenize_words(text) == reference_tokenize_words(text)
        for term, start, end in analyzer.spans(text):
            assert analyzer.analyze(text[start:end]) == [term]

    def test_extract_reuses_one_query_analysis(self):
        generator = SnippetGenerator()
        terms = generator.query_terms("Taliban checkpoint")
        assert generator.extract(DOCUMENT, terms) == generator.generate(
            DOCUMENT, "Taliban checkpoint"
        )


# ----------------------------------------------------------------------
# The batched engine form.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def engines(tiny_dataset, tmp_path_factory) -> dict[str, NewsLinkEngine]:
    """A built engine, an mmap load of its index, and a thawed mmap load."""
    graph = tiny_dataset.world.graph
    corpus = list(tiny_dataset.split.full)
    built = NewsLinkEngine(graph)
    built.index_corpus(corpus)
    path = tmp_path_factory.mktemp("snippets") / "index.nlx"
    built.save_index(path)
    mapped = NewsLinkEngine(graph)
    mapped.load_index(path, mmap=True)
    thawed = NewsLinkEngine(graph)
    thawed.load_index(path, mmap=True)
    thawed.remove_document(corpus[-1].doc_id)
    thawed.index_document(corpus[-1])
    assert mapped.is_frozen and not thawed.is_frozen
    return {"built": built, "mapped": mapped, "thawed": thawed}


class TestEngineSnippets:
    @pytest.mark.parametrize("kind", ["built", "mapped", "thawed"])
    def test_batch_equals_one_by_one(self, engines, tiny_dataset, kind):
        engine = engines[kind]
        corpus = list(tiny_dataset.split.full)
        query = corpus[0].text[:200]
        ids = [hit.doc_id for hit in engine.search(query, k=10)]
        assert len(ids) > 1
        ids = ids + ids[:2]  # duplicates allowed, order kept
        got = engine.snippets(query, ids)
        assert got == [engine.snippet(query, doc_id) for doc_id in ids]
        assert got == engines["built"].snippets(query, ids)
        assert any("**" in snippet.text for snippet in got)

    def test_empty_batch(self, engines):
        assert engines["built"].snippets("anything", []) == []

    def test_unknown_document(self, engines):
        known = engines["built"].indexed_doc_ids()[0]
        with pytest.raises(DocumentNotIndexedError):
            engines["built"].snippets("anything", [known, "no-such-doc"])

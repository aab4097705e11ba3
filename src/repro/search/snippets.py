"""Result snippet generation.

Search UIs show a query-biased extract of each hit.  The generator scores
each sentence of the document by analyzed-term overlap with the query
(IDF-weighted, so rare matched terms dominate) and returns the best
window of consecutive sentences with the matched terms highlighted.

One :meth:`Analyzer.spans` scan of the document feeds all three steps:
sentence scores, the window choice and the highlight offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.search.analyzer import Analyzer
from repro.search.bm25 import Bm25Scorer
from repro.nlp.sentences import split_sentences


@dataclass(frozen=True)
class Snippet:
    """A query-biased document extract.

    Attributes:
        text: the extracted (possibly highlighted) text.
        start: character offset of the extract in the source document.
        end: one past the last character.
        score: the extract's query-overlap score.
    """

    text: str
    start: int
    end: int
    score: float


class SnippetGenerator:
    """Generates query-biased snippets from document text."""

    def __init__(
        self,
        analyzer: Analyzer | None = None,
        scorer: Bm25Scorer | None = None,
        max_sentences: int = 2,
        highlight: tuple[str, str] | None = ("**", "**"),
    ) -> None:
        self._analyzer = analyzer or Analyzer()
        self._scorer = scorer  # supplies IDF when available
        self._max_sentences = max_sentences
        self._highlight = highlight

    def _term_weight(self, term: str) -> float:
        if self._scorer is None:
            return 1.0
        return max(self._scorer.idf(term), 0.0)

    def query_terms(self, query: str) -> set[str]:
        """The analyzed terms of ``query`` — once per request, not per hit."""
        return set(self._analyzer.analyze(query))

    def generate(self, document_text: str, query: str) -> Snippet:
        """The best snippet of ``document_text`` for ``query``.

        Falls back to the document's first sentence when nothing matches.
        """
        return self.extract(document_text, self.query_terms(query))

    def extract(self, document_text: str, query_terms: set[str]) -> Snippet:
        """:meth:`generate` for an already analyzed query."""
        sentences = split_sentences(document_text)
        if not sentences:
            return Snippet(text="", start=0, end=0, score=0.0)
        spans = self._analyzer.spans(document_text)
        # Sentences are whitespace-delimited and words hold no whitespace,
        # so every span lies inside exactly one sentence:
        # spans[bounds[i]:bounds[i + 1]] are sentence i's.
        bounds = [0]
        cursor = 0
        for sentence in sentences:
            while cursor < len(spans) and spans[cursor][1] < sentence.end:
                cursor += 1
            bounds.append(cursor)
        sentence_scores = []
        for low, high in zip(bounds, bounds[1:]):
            matched = {term for term, _, _ in spans[low:high]} & query_terms
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
        start = sentences[best_start].start
        end = sentences[best_start + window - 1].end
        if self._highlight and query_terms:
            open_mark, close_mark = self._highlight
            pieces: list[str] = []
            cursor = start
            for term, word_start, word_end in spans[
                bounds[best_start] : bounds[best_start + window]
            ]:
                if term in query_terms:
                    pieces.append(document_text[cursor:word_start])
                    pieces.append(
                        f"{open_mark}{document_text[word_start:word_end]}"
                        f"{close_mark}"
                    )
                    cursor = word_end
            pieces.append(document_text[cursor:end])
            extract = "".join(pieces)
        else:
            extract = document_text[start:end]
        return Snippet(
            text=extract, start=start, end=end, score=max(best_score, 0.0)
        )

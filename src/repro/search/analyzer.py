"""Text analysis chain for indexing and querying.

Mirrors Lucene's default English analysis: lowercase tokenization, stopword
removal and (Porter) stemming.
"""

from __future__ import annotations

from repro.nlp.stemmer import porter_stem
from repro.nlp.stopwords import STOPWORDS
from repro.nlp.tokenizer import WORD_PATTERN


class Analyzer:
    """Configurable lowercase/stop/stem analyzer."""

    def __init__(self, remove_stopwords: bool = True, stem: bool = True) -> None:
        self._remove_stopwords = remove_stopwords
        self._stem = stem
        # surface word -> index term, None for a dropped stopword
        self._terms: dict[str, str | None] = {}

    def analyze(self, text: str) -> list[str]:
        """Analyze ``text`` into index terms."""
        return [term for term, _, _ in self.spans(text)]

    def spans(self, text: str) -> list[tuple[str, int, int]]:
        """``(term, start, end)`` of every kept word of ``text``, in order.

        The one scan behind :meth:`analyze`, so whatever locates a term
        in the source (snippet highlighting) sees exactly the index terms.
        """
        terms = self._terms
        spans = []
        for match in WORD_PATTERN.finditer(text):
            word = match.group()
            term = terms[word] if word in terms else self._term(word)
            if term is not None:
                spans.append((term, match.start(), match.end()))
        return spans

    def _term(self, word: str) -> str | None:
        term: str | None = word.lower()
        if self._remove_stopwords and term in STOPWORDS:
            term = None
        elif self._stem:
            term = porter_stem(term)
        self._terms[word] = term
        return term

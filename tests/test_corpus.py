"""Corpus bytes pinned to fixed digests, so a refactor cannot move a byte."""

import hashlib

import pytest

from seq2time.clip_sequence import ClipCorpusConfig, clip_corpus
from seq2time.image_sequence import ImageCorpusConfig, image_corpus
from seq2time.position_token import TimeRepresentation

# sha256 of 500-record builds (seed 0, default options) from the conftest pools
DIGESTS = {
    ("image", "rpt"): "ee4bd3f8b2ce3e939cf47a3d924674c97545fe1fe597b91035215d94a33ba1b8",
    ("image", "free_form"): "762ec8e68874dd6a45ef606058a46ae8db086eecaefe724ee101b700459de69c",
    ("clip", "rpt"): "35ebe9231be97b453bf57570c11182957da83fb1b95ce31fe01c0ae4667b2c93",
    ("clip", "free_form"): "4609d8871ae91e5d51f08b5c568a76bc67faca8ef2f57d00896e7828e0c9fe69",
}


@pytest.mark.parametrize("kind, repr_name", sorted(DIGESTS))
def test_written_corpus_matches_pinned_digest(
    image_pool, clip_pool, tmp_path, kind, repr_name
):
    time_repr = TimeRepresentation(repr_name)
    if kind == "image":
        build = image_corpus(ImageCorpusConfig(n_instances=500, time_repr=time_repr), image_pool)
    else:
        build = clip_corpus(ClipCorpusConfig(n_instances=500, time_repr=time_repr), clip_pool)
    path = tmp_path / "corpus.jsonl"
    build.write(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[kind, repr_name]

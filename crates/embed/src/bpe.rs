//! Byte-pair-encoding tokenizer (Sennrich et al., the scheme the paper's
//! interpretable KG retrieval decodes against).
//!
//! Training starts from characters with an end-of-word marker and greedily
//! merges the most frequent adjacent pair until the vocabulary budget is
//! reached. Frequent domain words therefore end up as single tokens, which is
//! what makes retrieved neighbours human-readable.

use crate::vocab::{TokenId, Vocab};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Marker appended to the final symbol of each word, so decoding can
/// reinsert word boundaries.
pub const END_OF_WORD: &str = "</w>";

/// A trained byte-pair encoder.
///
/// # Examples
///
/// ```
/// use akg_embed::bpe::BpeTokenizer;
/// let corpus = ["a stealing person", "a person stealing a bag"];
/// let tok = BpeTokenizer::train(corpus.iter().copied(), 200);
/// let ids = tok.encode("stealing bag");
/// assert_eq!(tok.decode(&ids), "stealing bag");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BpeTokenizer {
    vocab: Vocab,
    merges: Vec<(String, String)>,
    #[serde(skip)]
    merge_ranks: HashMap<(String, String), usize>,
}

impl BpeTokenizer {
    /// Trains a tokenizer on a corpus until the vocabulary reaches
    /// `vocab_budget` entries (or no more merges are possible).
    ///
    /// Words are whitespace-separated, lowercased; non-alphanumeric
    /// characters are dropped.
    pub fn train<'a, I: IntoIterator<Item = &'a str>>(corpus: I, vocab_budget: usize) -> Self {
        // word -> frequency
        let mut word_freq: HashMap<Vec<String>, u64> = HashMap::new();
        let mut char_set: Vec<String> = Vec::new();
        let mut seen_chars: HashMap<String, ()> = HashMap::new();
        for line in corpus {
            for word in normalize(line).split_whitespace() {
                let symbols = word_symbols(word);
                for s in &symbols {
                    if seen_chars.insert(s.clone(), ()).is_none() {
                        char_set.push(s.clone());
                    }
                }
                *word_freq.entry(symbols).or_insert(0) += 1;
            }
        }
        char_set.sort();
        let mut tokens: Vec<String> = char_set;
        let mut merges: Vec<(String, String)> = Vec::new();

        // Greedy merge loop. Deterministic tie-breaking: lexicographically
        // smallest pair among the most frequent.
        let mut words: Vec<(Vec<String>, u64)> = {
            let mut w: Vec<_> = word_freq.into_iter().collect();
            w.sort();
            w
        };
        while tokens.len() + 1 < vocab_budget {
            let mut pair_freq: HashMap<(String, String), u64> = HashMap::new();
            for (symbols, freq) in &words {
                for pair in symbols.windows(2) {
                    *pair_freq.entry((pair[0].clone(), pair[1].clone())).or_insert(0) += freq;
                }
            }
            let Some(best) = pair_freq
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
                .map(|(p, _)| p.clone())
            else {
                break;
            };
            if pair_freq[&best] < 2 {
                break;
            }
            let merged = format!("{}{}", best.0, best.1);
            tokens.push(merged.clone());
            merges.push(best.clone());
            for (symbols, _) in &mut words {
                apply_merge(symbols, &best, &merged);
            }
        }

        let mut vocab = Vocab::new();
        vocab.push("<unk>".to_string());
        for t in tokens {
            vocab.push(t);
        }
        let merge_ranks =
            merges.iter().cloned().enumerate().map(|(i, p)| (p, i)).collect::<HashMap<_, _>>();
        BpeTokenizer { vocab, merges, merge_ranks }
    }

    /// Rebuilds the internal merge-rank index (needed after deserialization).
    pub fn rebuild_index(&mut self) {
        self.merge_ranks = self.merges.iter().cloned().enumerate().map(|(i, p)| (p, i)).collect();
    }

    /// Encodes text into token ids. Unknown symbols map to `<unk>` (id 0).
    pub fn encode(&self, text: &str) -> Vec<TokenId> {
        let mut ids = Vec::new();
        for word in normalize(text).split_whitespace() {
            let mut symbols = word_symbols(word);
            // Apply merges in training order (lowest rank first).
            loop {
                let mut best: Option<(usize, usize)> = None; // (rank, pos)
                for (pos, pair) in symbols.windows(2).enumerate() {
                    if let Some(&rank) = self.merge_ranks.get(&(pair[0].clone(), pair[1].clone())) {
                        if best.is_none_or(|(r, _)| rank < r) {
                            best = Some((rank, pos));
                        }
                    }
                }
                let Some((_, pos)) = best else { break };
                let merged = format!("{}{}", symbols[pos], symbols[pos + 1]);
                symbols.splice(pos..pos + 2, [merged]);
            }
            for s in &symbols {
                ids.push(self.vocab.id_of(s).unwrap_or(TokenId(0)));
            }
        }
        ids
    }

    /// Decodes token ids back into text.
    pub fn decode(&self, ids: &[TokenId]) -> String {
        let mut out = String::new();
        for &id in ids {
            let tok = self.vocab.token(id);
            if tok == "<unk>" {
                continue;
            }
            if let Some(stripped) = tok.strip_suffix(END_OF_WORD) {
                out.push_str(stripped);
                out.push(' ');
            } else {
                out.push_str(tok);
            }
        }
        out.trim_end().to_string()
    }

    /// The token vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Whether `word` encodes to exactly one (non-unk) token.
    pub fn is_single_token(&self, word: &str) -> bool {
        let ids = self.encode(word);
        ids.len() == 1 && ids[0] != TokenId(0)
    }
}

fn normalize(text: &str) -> String {
    text.to_lowercase()
        .chars()
        .map(|c| if c.is_alphanumeric() || c.is_whitespace() { c } else { ' ' })
        .collect()
}

fn word_symbols(word: &str) -> Vec<String> {
    let chars: Vec<char> = word.chars().collect();
    let mut symbols: Vec<String> = chars.iter().map(|c| c.to_string()).collect();
    if let Some(last) = symbols.last_mut() {
        last.push_str(END_OF_WORD);
    }
    symbols
}

fn apply_merge(symbols: &mut Vec<String>, pair: &(String, String), merged: &str) {
    let mut i = 0;
    while i + 1 < symbols.len() {
        if symbols[i] == pair.0 && symbols[i + 1] == pair.1 {
            symbols.splice(i..i + 2, [merged.to_string()]);
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tokenizer() -> BpeTokenizer {
        let corpus = [
            "stealing stealing stealing person person bag",
            "robbery firearm weapon threat person",
            "a person stealing a bag at night",
            "robbery with a firearm",
        ];
        BpeTokenizer::train(corpus.iter().copied(), 400)
    }

    #[test]
    fn round_trip_known_words() {
        let tok = sample_tokenizer();
        for text in ["stealing bag", "robbery firearm", "person at night"] {
            let ids = tok.encode(text);
            assert_eq!(tok.decode(&ids), text, "round trip failed for {text}");
        }
    }

    #[test]
    fn frequent_words_become_single_tokens() {
        let tok = sample_tokenizer();
        assert!(tok.is_single_token("stealing"));
        assert!(tok.is_single_token("person"));
    }

    #[test]
    fn unknown_characters_do_not_panic() {
        let tok = sample_tokenizer();
        let ids = tok.encode("zzzqqq 日本");
        let _ = tok.decode(&ids);
    }

    #[test]
    fn normalization_strips_punctuation_and_case() {
        let tok = sample_tokenizer();
        assert_eq!(tok.encode("Stealing!"), tok.encode("stealing"));
    }

    #[test]
    fn deterministic_training() {
        let a = sample_tokenizer();
        let b = sample_tokenizer();
        assert_eq!(a.vocab().len(), b.vocab().len());
        assert_eq!(a.encode("stealing person"), b.encode("stealing person"));
    }

    #[test]
    fn vocab_budget_respected() {
        let corpus = ["aa bb cc dd ee ff gg hh aa bb aa bb aa bb cc dd"];
        let tok = BpeTokenizer::train(corpus.iter().copied(), 20);
        assert!(tok.vocab().len() <= 20);
    }

    #[test]
    fn serde_round_trip_with_rebuilt_index() {
        let tok = sample_tokenizer();
        let json = serde_json::to_string(&tok).unwrap();
        let mut back: BpeTokenizer = serde_json::from_str(&json).unwrap();
        back.rebuild_index();
        assert_eq!(back.encode("stealing bag"), tok.encode("stealing bag"));
    }
}

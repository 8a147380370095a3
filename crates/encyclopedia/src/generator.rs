//! Synthetic encyclopedia generator — the CN-DBpedia stand-in.
//!
//! The real evaluation corpus (CN-DBpedia dump of 2017-05-20: 15.99 M
//! entities, 132 M triples) is unavailable, so this module generates a
//! corpus with the same *structure* and the same *noise classes* the paper
//! describes, at configurable scale and with known ground truth:
//!
//! * pages with bracket / abstract / infobox / tags (Figure 1 anatomy);
//! * bracket noun compounds with organization, country and rank modifiers
//!   (蚂蚁金服首席战略官-style — Figure 3);
//! * tags mixing correct hypernyms with thematic topics (音乐), named
//!   entities and plainly wrong concepts — the noise §III's verification
//!   strategies remove;
//! * infobox triples with 12 genuinely isA-bearing predicates (职业, 类型 …)
//!   buried among ~350 junk predicates — reproducing the paper's
//!   341-candidate → 12-selected predicate-discovery setting;
//! * abstracts whose first sentence usually mentions the concept, the
//!   signal the CopyNet abstract generator learns to copy;
//! * name collisions that force disambiguated senses (men2ent workload).

use crate::gold::GoldLabels;
use crate::names;
use crate::ontology::{ConceptSpec, Domain, Ontology};
use crate::page::{InfoboxTriple, Page};
use cnp_text::pos::PosTag;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Country-level modifiers usable in brackets and abstracts.
pub static COUNTRY_MODS: [&str; 6] = ["中国", "美国", "日本", "韩国", "英国", "法国"];
/// Region/city modifiers.
pub static CITY_MODS: [&str; 4] = ["香港", "台湾", "北京", "上海"];

/// Junk-predicate name material: PFX × MID ≈ 348 distinct predicates, the
/// haystack for predicate discovery (paper: 341 candidates).
static JUNK_PFX: [&str; 12] = [
    "主要", "相关", "其他", "历任", "曾用", "附属", "特色", "早期", "后期", "官方", "国际", "地方",
];
static JUNK_MID: [&str; 29] = [
    "奖项", "称号", "头衔", "标识", "领域", "方向", "项目", "条目", "栏目", "板块", "分区", "系列",
    "词条", "名录", "要素", "指标", "事件", "活动", "合作", "版本", "评价", "记录", "档案", "阵容",
    "口号", "代号", "别称", "绰号", "刊物",
];

/// The 12 isA-bearing predicates (what the paper's manual selection keeps).
pub static ISA_PREDICATES: [&str; 12] = [
    "职业",
    "身份",
    "职务",
    "类型",
    "体裁",
    "性质",
    "学校类别",
    "医院等级",
    "行政区类别",
    "分类",
    "类别",
    "菜系",
];

/// Generation parameters (all rates in `[0, 1]`).
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// RNG seed; equal seeds produce byte-identical corpora.
    pub seed: u64,
    /// Number of entity pages (concept pages are added on top).
    pub num_pages: usize,
    /// Probability that a page carries a thematic topic tag (音乐 …).
    pub tag_thematic_rate: f64,
    /// Probability of a named-entity tag (place/person name).
    pub tag_ne_rate: f64,
    /// Probability of a wrong concept tag.
    pub tag_wrong_concept_rate: f64,
    /// Probability that an isA-bearing infobox value is wrong.
    pub infobox_noise_rate: f64,
    /// Probability that a junk-predicate value coincides with a concept
    /// (produces spurious predicate-discovery alignments).
    pub junk_concept_value_rate: f64,
    /// Probability that the abstract omits the concept mention.
    pub abstract_omit_concept_rate: f64,
    /// Probability of reusing an existing name (forces disambiguation).
    pub ambiguous_name_rate: f64,
    /// Probability a page has a bracket (collided names always get one).
    pub bracket_rate: f64,
    /// Probability that a non-root ontology concept gets its own page.
    pub concept_page_rate: f64,
}

impl CorpusConfig {
    /// ~400 pages — doctests and unit tests.
    pub fn tiny(seed: u64) -> Self {
        CorpusConfig {
            num_pages: 400,
            ..Self::standard(seed)
        }
    }

    /// ~2 000 pages — integration tests.
    pub fn small(seed: u64) -> Self {
        CorpusConfig {
            num_pages: 2_000,
            ..Self::standard(seed)
        }
    }

    /// ~12 000 pages — the default experiment scale.
    pub fn standard(seed: u64) -> Self {
        CorpusConfig {
            seed,
            num_pages: 12_000,
            tag_thematic_rate: 0.08,
            tag_ne_rate: 0.02,
            tag_wrong_concept_rate: 0.025,
            infobox_noise_rate: 0.02,
            junk_concept_value_rate: 0.15,
            abstract_omit_concept_rate: 0.08,
            ambiguous_name_rate: 0.05,
            bracket_rate: 0.65,
            concept_page_rate: 0.9,
        }
    }

    /// ~60 000 pages — benchmark scale.
    pub fn large(seed: u64) -> Self {
        CorpusConfig {
            num_pages: 60_000,
            ..Self::standard(seed)
        }
    }
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self::standard(42)
    }
}

/// A generated corpus: pages + ground truth + corpus-derived dictionary.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// All pages (entity pages then concept pages).
    pub pages: Vec<Page>,
    /// Ground-truth labels.
    pub gold: GoldLabels,
    /// The configuration that produced this corpus.
    pub config: CorpusConfig,
    vocab_counts: HashMap<String, u64>,
}

impl Corpus {
    /// Corpus-derived dictionary entries `(word, freq, pos)`: gold concepts,
    /// modifiers, name-part words and predicates with usage frequencies —
    /// the stand-in for jieba's dictionary that the real system would use.
    pub fn dictionary(&self) -> Vec<(String, u64, PosTag)> {
        self.vocab_counts
            .iter()
            .map(|(w, &c)| (w.clone(), c.max(1), PosTag::Noun))
            .collect()
    }

    /// Pages whose name equals a gold concept (concept pages).
    pub fn num_concept_pages(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| self.gold.is_concept(&p.name))
            .count()
    }

    /// A deterministic page subset (for baselines built from smaller
    /// encyclopedias, e.g. Chinese Wikipedia vs. Baidu Baike). Gold labels
    /// and the corpus dictionary are shared with the full corpus.
    pub fn subset(&self, fraction: f64, seed: u64) -> Corpus {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        let mut rng = StdRng::seed_from_u64(seed);
        let pages: Vec<Page> = self
            .pages
            .iter()
            .filter(|_| rng.gen_bool(fraction))
            .cloned()
            .collect();
        Corpus {
            pages,
            gold: self.gold.clone(),
            config: self.config.clone(),
            vocab_counts: self.vocab_counts.clone(),
        }
    }
}

/// The generator. One-shot: `CorpusGenerator::new(config).generate()`.
#[derive(Debug)]
pub struct CorpusGenerator {
    config: CorpusConfig,
}

/// Draft page before collision resolution.
struct Draft {
    page: Page,
    bracket_content: String,
    publish_bracket: bool,
    /// Correct hypernyms to record once the final key is known.
    gold_hypernyms: Vec<String>,
    /// Subconcept pairs introduced by modified concepts (首席战略官→战略官).
    gold_concept_pairs: Vec<(String, String)>,
}

impl CorpusGenerator {
    /// Creates a generator.
    pub fn new(config: CorpusConfig) -> Self {
        CorpusGenerator { config }
    }

    /// Generates the corpus.
    pub fn generate(&self) -> Corpus {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let ontology = Ontology::global();
        let mut gold = GoldLabels::new();
        let mut vocab: HashMap<String, u64> = HashMap::new();

        // Global truths: every ontology edge, transitively.
        for spec in crate::ontology::CONCEPTS {
            for anc in ontology.ancestors(spec.name) {
                gold.add_concept_pair(spec.name, anc);
            }
        }

        // Phase 1: drafts.
        let mut drafts: Vec<Draft> = Vec::with_capacity(self.config.num_pages);
        let mut name_registry: HashMap<String, u32> = HashMap::new();
        let mut name_pool: Vec<String> = Vec::new();
        for _ in 0..self.config.num_pages {
            let domain = self.sample_domain(&mut rng);
            let leaves = ontology.leaves_of(domain);
            let leaf = leaves[rng.gen_range(0..leaves.len())];
            let draft = self.generate_draft(&mut rng, domain, leaf, &mut name_pool, &mut vocab);
            *name_registry.entry(draft.page.name.clone()).or_insert(0) += 1;
            drafts.push(draft);
        }

        // Phase 2: collision resolution — duplicated names must disambiguate.
        for d in &mut drafts {
            if name_registry[&d.page.name] > 1 {
                d.publish_bracket = true;
            }
            if d.publish_bracket {
                d.page.bracket = Some(d.bracket_content.clone());
            }
        }

        // Phase 3: finalize gold with resolved keys.
        let mut pages = Vec::with_capacity(drafts.len());
        for d in drafts {
            let key = d.page.key();
            for h in &d.gold_hypernyms {
                gold.add_entity_hypernym(&key, h);
            }
            for (sub, sup) in &d.gold_concept_pairs {
                gold.add_concept_pair(sub, sup);
                // A modified concept inherits its base's ancestors.
                for anc in ontology.ancestors(sup) {
                    gold.add_concept_pair(sub, anc);
                }
            }
            pages.push(d.page);
        }

        // Phase 4: concept pages (男演员 has its own page tagged 演员).
        for spec in crate::ontology::CONCEPTS {
            let Some(parent) = spec.parent else { continue };
            if !rng.gen_bool(self.config.concept_page_rate) {
                continue;
            }
            let mut tags = vec![parent.to_string()];
            if let Some(grand) = ontology.get(parent).and_then(|c| c.parent) {
                if rng.gen_bool(0.5) {
                    tags.push(grand.to_string());
                }
            }
            if rng.gen_bool(self.config.tag_thematic_rate) {
                tags.push(self.thematic_tag(&mut rng, spec.domain).to_string());
            }
            let page = Page {
                name: spec.name.to_string(),
                bracket: None,
                abstract_text: format!("{}是{}的一种。", spec.name, parent),
                infobox: vec![InfoboxTriple::new("中文名", spec.name)],
                tags,
                aliases: Vec::new(),
            };
            // Concept pages' "entity" isA pairs are really subconcept pairs;
            // gold already contains them transitively. Record them under the
            // entity judgement too so per-source precision can score them.
            let key = page.key();
            gold.add_entity_hypernym(&key, parent);
            for anc in ontology.ancestors(parent) {
                gold.add_entity_hypernym(&key, anc);
            }
            pages.push(page);
        }

        Corpus {
            pages,
            gold,
            config: self.config.clone(),
            vocab_counts: vocab,
        }
    }

    fn sample_domain(&self, rng: &mut StdRng) -> Domain {
        let x: f64 = rng.gen();
        match x {
            _ if x < 0.52 => Domain::Person,
            _ if x < 0.70 => Domain::Work,
            _ if x < 0.81 => Domain::Organization,
            _ if x < 0.88 => Domain::Place,
            _ if x < 0.93 => Domain::Organism,
            _ if x < 0.97 => Domain::Product,
            _ => Domain::Food,
        }
    }

    fn generate_draft(
        &self,
        rng: &mut StdRng,
        domain: Domain,
        leaf: &'static ConceptSpec,
        name_pool: &mut Vec<String>,
        vocab: &mut HashMap<String, u64>,
    ) -> Draft {
        let ontology = Ontology::global();
        let cfg = &self.config;

        // --- name (with deliberate collisions) ---
        let name = if !name_pool.is_empty() && rng.gen_bool(cfg.ambiguous_name_rate) {
            name_pool[rng.gen_range(0..name_pool.len())].clone()
        } else {
            let fresh = match domain {
                Domain::Person => names::person_name(rng),
                Domain::Work => names::work_title(rng),
                Domain::Organization => {
                    let suffixed = rng.gen_bool(0.5);
                    if suffixed {
                        names::org_name(rng, Some(self.org_suffix_for(leaf)))
                    } else {
                        names::org_name(rng, None)
                    }
                }
                Domain::Place => {
                    let suffix = self.place_suffix_for(leaf, rng);
                    names::place_name(rng, suffix)
                }
                Domain::Organism => names::organism_name(rng),
                Domain::Product => names::product_name(rng),
                Domain::Food => names::food_name(rng),
            };
            name_pool.push(fresh.clone());
            fresh
        };

        // --- gold concepts ---
        let mut gold_hypernyms: Vec<String> = vec![leaf.name.to_string()];
        for anc in ontology.ancestors(leaf.name) {
            gold_hypernyms.push(anc.to_string());
        }
        let second_leaf: Option<&'static ConceptSpec> =
            if domain == Domain::Person && rng.gen_bool(0.35) {
                let leaves = ontology.leaves_of(Domain::Person);
                let other = leaves[rng.gen_range(0..leaves.len())];
                if other.name != leaf.name {
                    gold_hypernyms.push(other.name.to_string());
                    for anc in ontology.ancestors(other.name) {
                        gold_hypernyms.push(anc.to_string());
                    }
                    Some(other)
                } else {
                    None
                }
            } else {
                None
            };

        // --- bracket ---
        let mut modified_concepts: Vec<(String, String)> = Vec::new(); // (modified, base)
        let bracket_content = self.bracket_for(
            rng,
            domain,
            leaf,
            second_leaf,
            &mut modified_concepts,
            vocab,
        );
        for (modified, _) in &modified_concepts {
            gold_hypernyms.push(modified.clone());
        }

        // --- tags ---
        let mut tags: Vec<String> = vec![leaf.name.to_string()];
        bump(vocab, leaf.name);
        if let Some(parent) = leaf.parent {
            if rng.gen_bool(0.6) {
                tags.push(parent.to_string());
                bump(vocab, parent);
            }
        }
        let root = ontology.ancestors(leaf.name).last().copied();
        if let Some(root) = root {
            if rng.gen_bool(0.5) {
                tags.push(root.to_string());
                bump(vocab, root);
            }
        }
        if let Some(second) = second_leaf {
            tags.push(second.name.to_string());
            bump(vocab, second.name);
        }
        if rng.gen_bool(cfg.tag_thematic_rate) {
            tags.push(self.thematic_tag(rng, domain).to_string());
        }
        if rng.gen_bool(cfg.tag_ne_rate) {
            let ne = if rng.gen_bool(0.5) {
                names::place_name(rng, '市')
            } else {
                names::person_name(rng)
            };
            tags.push(ne);
        }
        if rng.gen_bool(cfg.tag_wrong_concept_rate) {
            // Half same-domain (compatible, hard to catch), half cross-domain.
            let wrong = if rng.gen_bool(0.5) {
                let leaves = ontology.leaves_of(domain);
                leaves[rng.gen_range(0..leaves.len())].name
            } else {
                let all = ontology.all_leaves();
                all[rng.gen_range(0..all.len())].name
            };
            if !gold_hypernyms.iter().any(|g| g == wrong) {
                tags.push(wrong.to_string());
            }
        }

        // --- infobox ---
        let infobox = self.infobox_for(rng, domain, leaf, &name, vocab);

        // --- abstract ---
        let abstract_text = self.abstract_for(rng, domain, leaf, second_leaf, &name, vocab);

        // --- aliases ---
        let mut aliases = Vec::new();
        if domain == Domain::Person && rng.gen_bool(0.15) {
            let last = name.chars().last().unwrap();
            aliases.push(format!("阿{last}"));
        }

        let page = Page {
            name,
            bracket: None,
            abstract_text,
            infobox,
            tags,
            aliases,
        };
        let publish_bracket = rng.gen_bool(cfg.bracket_rate);

        let mut draft = Draft {
            page,
            bracket_content,
            publish_bracket,
            gold_hypernyms,
            gold_concept_pairs: modified_concepts,
        };
        draft.gold_hypernyms.sort();
        draft.gold_hypernyms.dedup();
        draft
    }

    fn org_suffix_for(&self, leaf: &ConceptSpec) -> &'static str {
        match leaf.name {
            "科技公司" => "有限公司",
            "电影公司" => "影业公司",
            "唱片公司" => "唱片公司",
            "商业银行" => "银行",
            "综合性大学" | "师范大学" | "理工大学" => "大学",
            "中学" => "中学",
            "三甲医院" => "医院",
            "研究所" => "研究所",
            "博物馆" => "博物馆",
            "图书馆" => "图书馆",
            "出版社" => "出版社",
            "电视台" => "电视台",
            "足球俱乐部" | "篮球俱乐部" => "俱乐部",
            "乐队" => "乐队",
            _ => "集团",
        }
    }

    fn place_suffix_for(&self, leaf: &ConceptSpec, rng: &mut StdRng) -> char {
        match leaf.name {
            "省会城市" | "沿海城市" => '市',
            "县" => '县',
            "山峰" => '山',
            "河流" => '河',
            "湖泊" => '湖',
            "岛屿" | "岛国" => '岛',
            "内陆国" => '国',
            _ => {
                if rng.gen_bool(0.5) {
                    '市'
                } else {
                    '县'
                }
            }
        }
    }

    /// Thematic topic plausibly attached to pages of this domain.
    fn thematic_tag(&self, rng: &mut StdRng, domain: Domain) -> &'static str {
        let pool: &[&'static str] = match domain {
            Domain::Person => &["娱乐", "音乐", "影视", "体育", "文学", "科学"],
            Domain::Work => &["影视", "音乐", "文学", "娱乐", "科幻"],
            Domain::Organization => &["商业", "金融", "教育", "科技"],
            Domain::Place => &["旅游", "地理", "自然"],
            Domain::Organism => &["自然", "宠物", "园艺"],
            Domain::Product => &["数码", "科技", "汽车工业"],
            Domain::Food => &["美食", "烹饪", "生活"],
        };
        // 汽车工业 is not in the lexicon; fall back to 数码 when sampled.
        let pick = pool[rng.gen_range(0..pool.len())];
        if cnp_text::lexicons::is_thematic(pick) {
            pick
        } else {
            "数码"
        }
    }

    /// Builds the bracket compound and records modified concepts
    /// `(modified, base)` it introduces (首席战略官 → 战略官).
    fn bracket_for(
        &self,
        rng: &mut StdRng,
        domain: Domain,
        leaf: &'static ConceptSpec,
        second_leaf: Option<&'static ConceptSpec>,
        modified: &mut Vec<(String, String)>,
        vocab: &mut HashMap<String, u64>,
    ) -> String {
        match domain {
            Domain::Person => {
                let business = matches!(leaf.name, "执行官" | "战略官" | "分析师");
                if business {
                    let org = names::org_name(rng, None);
                    for part in [&org[..6], &org[6..]] {
                        bump(vocab, part);
                    }
                    let chief = rng.gen_bool(0.7);
                    bump(vocab, leaf.name);
                    if chief {
                        let m = format!("首席{}", leaf.name);
                        modified.push((m.clone(), leaf.name.to_string()));
                        format!("{org}{m}")
                    } else {
                        format!("{org}{}", leaf.name)
                    }
                } else {
                    let mut parts = String::new();
                    if rng.gen_bool(0.5) {
                        let c = names::pick(rng, &COUNTRY_MODS);
                        parts.push_str(c);
                        bump(vocab, c);
                        if c == "中国" && rng.gen_bool(0.5) {
                            let city = names::pick(rng, &CITY_MODS);
                            parts.push_str(city);
                            bump(vocab, city);
                        }
                    }
                    parts.push_str(leaf.name);
                    bump(vocab, leaf.name);
                    if let Some(second) = second_leaf {
                        parts.push('、');
                        parts.push_str(second.name);
                        bump(vocab, second.name);
                    }
                    parts
                }
            }
            Domain::Work | Domain::Organization | Domain::Place => {
                let mut parts = String::new();
                if rng.gen_bool(0.4) {
                    let c = names::pick(rng, &COUNTRY_MODS);
                    parts.push_str(c);
                    bump(vocab, c);
                }
                parts.push_str(leaf.name);
                bump(vocab, leaf.name);
                parts
            }
            Domain::Organism | Domain::Product | Domain::Food => {
                bump(vocab, leaf.name);
                leaf.name.to_string()
            }
        }
    }

    fn infobox_for(
        &self,
        rng: &mut StdRng,
        domain: Domain,
        leaf: &'static ConceptSpec,
        name: &str,
        vocab: &mut HashMap<String, u64>,
    ) -> Vec<InfoboxTriple> {
        let cfg = &self.config;
        let mut triples = vec![InfoboxTriple::new("中文名", name)];
        let push_isa = |rng: &mut StdRng,
                        pred: &str,
                        value: &str,
                        triples: &mut Vec<InfoboxTriple>,
                        vocab: &mut HashMap<String, u64>| {
            let noisy = rng.gen_bool(cfg.infobox_noise_rate);
            let v = if noisy {
                // Wrong value: a thematic word or an unrelated concept.
                if rng.gen_bool(0.5) {
                    cnp_text::lexicons::THEMATIC_WORDS
                        [rng.gen_range(0..cnp_text::lexicons::THEMATIC_WORDS.len())]
                    .to_string()
                } else {
                    let all = Ontology::global().all_leaves();
                    all[rng.gen_range(0..all.len())].name.to_string()
                }
            } else {
                value.to_string()
            };
            bump(vocab, pred);
            triples.push(InfoboxTriple::new(pred, v));
        };

        match domain {
            Domain::Person => {
                let country = names::pick(rng, &COUNTRY_MODS);
                triples.push(InfoboxTriple::new("国籍", country));
                triples.push(InfoboxTriple::new("出生地", names::place_name(rng, '市')));
                triples.push(InfoboxTriple::new(
                    "出生日期",
                    format!(
                        "{}年{}月{}日",
                        rng.gen_range(1930..2005),
                        rng.gen_range(1..13),
                        rng.gen_range(1..29)
                    ),
                ));
                push_isa(rng, "职业", leaf.name, &mut triples, vocab);
                if rng.gen_bool(0.4) {
                    if let Some(parent) = leaf.parent {
                        push_isa(rng, "身份", parent, &mut triples, vocab);
                    }
                }
                if matches!(leaf.name, "执行官" | "战略官" | "分析师") {
                    push_isa(rng, "职务", leaf.name, &mut triples, vocab);
                }
                triples.push(InfoboxTriple::new(
                    "毕业院校",
                    names::org_name(rng, Some("大学")),
                ));
                triples.push(InfoboxTriple::new("代表作品", names::work_title(rng)));
                triples.push(InfoboxTriple::new(
                    "身高",
                    format!("{}cm", rng.gen_range(150..195)),
                ));
            }
            Domain::Work => {
                push_isa(rng, "类型", leaf.name, &mut triples, vocab);
                if matches!(
                    leaf.name,
                    "长篇小说" | "短篇小说" | "武侠小说" | "诗集" | "散文集"
                ) {
                    push_isa(rng, "体裁", leaf.name, &mut triples, vocab);
                    triples.push(InfoboxTriple::new("作者", names::person_name(rng)));
                    triples.push(InfoboxTriple::new(
                        "出版时间",
                        format!("{}年", rng.gen_range(1950..2020)),
                    ));
                } else {
                    triples.push(InfoboxTriple::new("导演", names::person_name(rng)));
                    triples.push(InfoboxTriple::new("主演", names::person_name(rng)));
                    triples.push(InfoboxTriple::new(
                        "发行时间",
                        format!("{}年", rng.gen_range(1970..2020)),
                    ));
                }
            }
            Domain::Organization => {
                push_isa(rng, "性质", leaf.name, &mut triples, vocab);
                if matches!(leaf.name, "综合性大学" | "师范大学" | "理工大学" | "中学")
                {
                    push_isa(rng, "学校类别", leaf.name, &mut triples, vocab);
                }
                if leaf.name == "三甲医院" {
                    push_isa(rng, "医院等级", leaf.name, &mut triples, vocab);
                }
                triples.push(InfoboxTriple::new(
                    "成立时间",
                    format!("{}年", rng.gen_range(1900..2018)),
                ));
                triples.push(InfoboxTriple::new("总部地点", names::place_name(rng, '市')));
                triples.push(InfoboxTriple::new("创始人", names::person_name(rng)));
            }
            Domain::Place => {
                push_isa(rng, "行政区类别", leaf.name, &mut triples, vocab);
                triples.push(InfoboxTriple::new(
                    "所属地区",
                    names::pick(rng, &COUNTRY_MODS),
                ));
                triples.push(InfoboxTriple::new(
                    "面积",
                    format!("{}平方公里", rng.gen_range(10..20000)),
                ));
                triples.push(InfoboxTriple::new(
                    "人口",
                    format!("{}万", rng.gen_range(1..800)),
                ));
            }
            Domain::Organism => {
                push_isa(rng, "分类", leaf.name, &mut triples, vocab);
                triples.push(InfoboxTriple::new(
                    "界",
                    if matches!(leaf.name, "乔木" | "灌木" | "草本植物" | "花卉") {
                        "植物界"
                    } else {
                        "动物界"
                    },
                ));
                triples.push(InfoboxTriple::new("分布区域", names::place_name(rng, '山')));
            }
            Domain::Product => {
                push_isa(rng, "类别", leaf.name, &mut triples, vocab);
                triples.push(InfoboxTriple::new(
                    "品牌",
                    names::pick(rng, &names::BRAND_WORDS),
                ));
                triples.push(InfoboxTriple::new(
                    "发布时间",
                    format!("{}年", rng.gen_range(2000..2020)),
                ));
                triples.push(InfoboxTriple::new(
                    "生产商",
                    names::org_name(rng, Some("有限公司")),
                ));
            }
            Domain::Food => {
                push_isa(rng, "菜系", leaf.name, &mut triples, vocab);
                triples.push(InfoboxTriple::new("主要食材", names::food_name(rng)));
                triples.push(InfoboxTriple::new("口味", "咸鲜"));
            }
        }

        // Junk predicates: the 341-candidate haystack.
        let n_junk = rng.gen_range(0..=2);
        for _ in 0..n_junk {
            let pred = format!(
                "{}{}",
                JUNK_PFX[rng.gen_range(0..JUNK_PFX.len())],
                JUNK_MID[rng.gen_range(0..JUNK_MID.len())]
            );
            let value = if rng.gen_bool(cfg.junk_concept_value_rate) {
                let all = Ontology::global().all_leaves();
                all[rng.gen_range(0..all.len())].name.to_string()
            } else if rng.gen_bool(0.5) {
                names::work_title(rng)
            } else {
                format!("第{}届", rng.gen_range(1..40))
            };
            triples.push(InfoboxTriple::new(pred, value));
        }
        triples
    }

    fn abstract_for(
        &self,
        rng: &mut StdRng,
        domain: Domain,
        leaf: &'static ConceptSpec,
        second_leaf: Option<&'static ConceptSpec>,
        name: &str,
        vocab: &mut HashMap<String, u64>,
    ) -> String {
        let omit = rng.gen_bool(self.config.abstract_omit_concept_rate);
        let concept_phrase = if omit {
            String::new()
        } else {
            bump(vocab, leaf.name);
            match second_leaf {
                Some(second) => {
                    bump(vocab, second.name);
                    format!("{}、{}", leaf.name, second.name)
                }
                None => leaf.name.to_string(),
            }
        };
        match domain {
            Domain::Person => {
                let year = rng.gen_range(1930..2005);
                let place = names::place_name(rng, '市');
                if omit {
                    format!("{name}，{year}年出生于{place}。")
                } else {
                    let country = names::pick(rng, &COUNTRY_MODS);
                    bump(vocab, country);
                    format!("{name}，{year}年出生于{place}，{country}{concept_phrase}。")
                }
            }
            Domain::Work => {
                let year = rng.gen_range(1970..2020);
                if omit {
                    format!("《{name}》发行于{year}年。")
                } else {
                    let person = names::person_name(rng);
                    format!("《{name}》是{person}创作的{concept_phrase}，发行于{year}年。")
                }
            }
            Domain::Organization => {
                let year = rng.gen_range(1900..2018);
                let place = names::place_name(rng, '市');
                if omit {
                    format!("{name}成立于{year}年，总部位于{place}。")
                } else {
                    format!("{name}是一家{concept_phrase}，成立于{year}年，总部位于{place}。")
                }
            }
            Domain::Place => {
                if omit {
                    format!("{name}位于{}。", names::pick(rng, &COUNTRY_MODS))
                } else {
                    format!(
                        "{name}是{}的{concept_phrase}，人口约{}万。",
                        names::pick(rng, &COUNTRY_MODS),
                        rng.gen_range(1..800)
                    )
                }
            }
            Domain::Organism => {
                if omit {
                    format!("{name}分布于{}一带。", names::place_name(rng, '山'))
                } else {
                    format!(
                        "{name}是一种{concept_phrase}，分布于{}一带。",
                        names::place_name(rng, '山')
                    )
                }
            }
            Domain::Product => {
                let year = rng.gen_range(2000..2020);
                if omit {
                    format!("{name}发布于{year}年。")
                } else {
                    format!(
                        "{name}是{}发布的{concept_phrase}。",
                        names::org_name(rng, Some("有限公司"))
                    )
                }
            }
            Domain::Food => {
                if omit {
                    format!("{name}口味咸鲜。")
                } else {
                    format!("{name}是一道{concept_phrase}，口味咸鲜。")
                }
            }
        }
    }
}

fn bump(vocab: &mut HashMap<String, u64>, word: &str) {
    *vocab.entry(word.to_string()).or_insert(0) += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_corpus() -> Corpus {
        CorpusGenerator::new(CorpusConfig::tiny(7)).generate()
    }

    #[test]
    fn generates_requested_page_count_plus_concept_pages() {
        let c = tiny_corpus();
        assert!(c.pages.len() >= c.config.num_pages);
        assert!(c.num_concept_pages() > 50, "concept pages missing");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = CorpusGenerator::new(CorpusConfig::tiny(9)).generate();
        let b = CorpusGenerator::new(CorpusConfig::tiny(9)).generate();
        assert_eq!(a.pages.len(), b.pages.len());
        for (pa, pb) in a.pages.iter().zip(&b.pages) {
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = CorpusGenerator::new(CorpusConfig::tiny(1)).generate();
        let b = CorpusGenerator::new(CorpusConfig::tiny(2)).generate();
        let same = a
            .pages
            .iter()
            .zip(&b.pages)
            .filter(|(x, y)| x.name == y.name)
            .count();
        assert!(same < a.pages.len() / 2);
    }

    #[test]
    fn duplicate_names_are_disambiguated() {
        let c = tiny_corpus();
        let mut by_name: HashMap<&str, Vec<&Page>> = HashMap::new();
        for p in &c.pages {
            by_name.entry(p.name.as_str()).or_default().push(p);
        }
        for (name, pages) in by_name {
            if pages.len() > 1 && !c.gold.is_concept(name) {
                for p in pages {
                    assert!(p.bracket.is_some(), "colliding page {name} lacks a bracket");
                }
            }
        }
    }

    #[test]
    fn every_entity_page_has_gold_labels() {
        let c = tiny_corpus();
        for p in &c.pages {
            let key = p.key();
            assert!(
                c.gold.hypernyms_of(&key).is_some(),
                "page {key} has no gold labels"
            );
        }
    }

    #[test]
    fn first_tag_is_always_gold_correct() {
        let c = tiny_corpus();
        for p in &c.pages {
            if c.gold.is_concept(&p.name) {
                continue; // concept pages judged at concept level
            }
            let key = p.key();
            assert!(
                c.gold.is_correct_entity_isa(&key, &p.tags[0]),
                "leaf tag {} of {key} not gold",
                p.tags[0]
            );
        }
    }

    #[test]
    fn tags_contain_noise_at_roughly_configured_rate() {
        let c = CorpusGenerator::new(CorpusConfig::small(11)).generate();
        let mut thematic = 0usize;
        let mut entity_pages = 0usize;
        for p in &c.pages {
            if c.gold.is_concept(&p.name) {
                continue;
            }
            entity_pages += 1;
            if p.tags.iter().any(|t| cnp_text::lexicons::is_thematic(t)) {
                thematic += 1;
            }
        }
        let rate = thematic as f64 / entity_pages as f64;
        assert!(
            (0.04..0.14).contains(&rate),
            "thematic tag rate {rate} far from configured 0.08"
        );
    }

    #[test]
    fn infobox_isa_predicates_mostly_correct() {
        let c = tiny_corpus();
        let mut correct = 0usize;
        let mut total = 0usize;
        for p in &c.pages {
            if c.gold.is_concept(&p.name) {
                continue;
            }
            let key = p.key();
            for t in &p.infobox {
                if ISA_PREDICATES.contains(&t.predicate.as_str()) {
                    total += 1;
                    if c.gold.is_correct_entity_isa(&key, &t.value) {
                        correct += 1;
                    }
                }
            }
        }
        assert!(total > 100);
        let precision = correct as f64 / total as f64;
        assert!(precision > 0.93, "infobox isA precision {precision}");
    }

    #[test]
    fn junk_predicates_present_in_bulk() {
        let c = CorpusGenerator::new(CorpusConfig::small(13)).generate();
        let mut junk_preds: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for p in &c.pages {
            for t in &p.infobox {
                if !ISA_PREDICATES.contains(&t.predicate.as_str())
                    && JUNK_PFX.iter().any(|x| t.predicate.starts_with(x))
                {
                    junk_preds.insert(t.predicate.as_str());
                }
            }
        }
        assert!(
            junk_preds.len() > 200,
            "junk predicate variety too low: {}",
            junk_preds.len()
        );
    }

    #[test]
    fn abstracts_usually_mention_the_leaf_concept() {
        let c = tiny_corpus();
        let mut mentions = 0usize;
        let mut entity_pages = 0usize;
        for p in &c.pages {
            if c.gold.is_concept(&p.name) {
                continue;
            }
            entity_pages += 1;
            if p.tags
                .first()
                .map(|leaf| p.abstract_text.contains(leaf.as_str()))
                .unwrap_or(false)
            {
                mentions += 1;
            }
        }
        let rate = mentions as f64 / entity_pages as f64;
        assert!(rate > 0.8, "abstract concept mention rate {rate}");
    }

    #[test]
    fn dictionary_covers_concepts_and_modifiers() {
        let c = tiny_corpus();
        let dict = c.dictionary();
        let words: std::collections::HashSet<&str> =
            dict.iter().map(|(w, _, _)| w.as_str()).collect();
        assert!(words.contains("演员") || words.contains("男演员"));
        assert!(words.contains("中国"));
        for (_, f, _) in &dict {
            assert!(*f > 0);
        }
    }

    #[test]
    fn business_brackets_compose_org_and_title() {
        // Scan a larger corpus for at least one 首席-style bracket.
        let c = CorpusGenerator::new(CorpusConfig::small(17)).generate();
        let found = c.pages.iter().any(|p| {
            p.bracket
                .as_deref()
                .is_some_and(|b| b.contains("首席") && b.chars().count() >= 7)
        });
        assert!(found, "no 蚂蚁金服首席战略官-style bracket generated");
    }

    #[test]
    fn gold_concept_pairs_include_ontology_transitive_closure() {
        let c = tiny_corpus();
        assert!(c.gold.is_correct_concept_isa("男演员", "演员"));
        assert!(c.gold.is_correct_concept_isa("男演员", "人物"));
        assert!(!c.gold.is_correct_concept_isa("演员", "男演员"));
    }
}

SELECT COUNT(*) FROM readings;
SELECT site, COUNT(*) FROM readings GROUP BY site;
SELECT site, SUM(value) FROM readings GROUP BY site;
SELECT site, EXPECTED(value) FROM readings GROUP BY site;
SELECT MIN(value), MAX(value) FROM readings;
